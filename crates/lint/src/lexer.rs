//! Minimal hand-rolled Rust lexer.
//!
//! Strips comments and string/char literals, then yields identifier, number,
//! and punctuation tokens tagged with 1-based line numbers. This is not a
//! full Rust lexer — it tokenizes just enough to resolve `fn` boundaries,
//! struct fields, paths, method calls, and `as` casts, which is all the
//! rule engine needs. Because literals and comments are dropped before any
//! rule runs, prose like "never call .unwrap() here" in a doc comment can
//! never trigger a finding.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Num,
    Punct,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`, discarding comments and all literal bodies.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1u32;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(&chars, i, &mut line);
        } else if c == '\'' {
            i = skip_quote(&chars, i, &mut line);
        } else if c.is_ascii_digit() {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            // Consume a fractional part, but never a `..` range operator.
            if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[start..i].iter().collect(),
                line,
            });
        } else if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // Raw/byte string prefixes swallow the literal instead of
            // emitting an identifier token.
            if i < n && matches!(text.as_str(), "r" | "b" | "br" | "rb") {
                match chars[i] {
                    '"' if text == "b" => {
                        i = skip_string(&chars, i, &mut line);
                        continue;
                    }
                    '"' | '#' if text != "b" => {
                        i = skip_raw_string(&chars, i, &mut line);
                        continue;
                    }
                    '\'' if text == "b" => {
                        i = skip_quote(&chars, i, &mut line);
                        continue;
                    }
                    _ => {}
                }
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
            });
        } else {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    toks
}

/// Skip a `"..."` literal starting at the opening quote; returns the index
/// one past the closing quote.
fn skip_string(chars: &[char], start: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut i = start + 1;
    while i < n {
        match chars[i] {
            '\\' => {
                if i + 1 < n && chars[i + 1] == '\n' {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string literal: cursor is on `"` or the first `#` after an
/// `r`/`br` prefix.
fn skip_raw_string(chars: &[char], start: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut i = start;
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || chars[i] != '"' {
        // `r#ident` raw identifier: the hashes belonged to an identifier.
        return i;
    }
    i += 1;
    while i < n {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut h = 0usize;
            while h < hashes && i + 1 + h < n && chars[i + 1 + h] == '#' {
                h += 1;
            }
            if h == hashes {
                return i + 1 + hashes;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Skip a `'x'` char literal or a `'lifetime`; cursor is on the `'`.
fn skip_quote(chars: &[char], start: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let i = start;
    if i + 1 < n && chars[i + 1] == '\\' {
        // Escaped char literal: scan to the closing quote.
        let mut j = i + 2;
        while j < n {
            match chars[j] {
                '\\' => j += 2,
                '\'' => return j + 1,
                '\n' => {
                    *line += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        j
    } else if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
        i + 3
    } else {
        // Lifetime: consume the tick and the trailing identifier.
        let mut j = i + 1;
        while j < n && is_ident_char(chars[j]) {
            j += 1;
        }
        j
    }
}

/// `(line, text-after-"//")` for every line comment, skipping string and
/// char literals — prose that merely *contains* `//` inside a literal (an
/// explain string, a test fixture embedded in a raw string) can never
/// register as a comment, and therefore never as a pragma.
pub fn comment_lines(src: &str) -> Vec<(u32, String)> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            out.push((line, chars[start..j].iter().collect()));
            i = j;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1u32;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(&chars, i, &mut line);
        } else if c == '\'' {
            i = skip_quote(&chars, i, &mut line);
        } else if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if i < n && matches!(text.as_str(), "r" | "b" | "br" | "rb") {
                match chars[i] {
                    '"' if text == "b" => i = skip_string(&chars, i, &mut line),
                    '"' | '#' if text != "b" => i = skip_raw_string(&chars, i, &mut line),
                    '\'' if text == "b" => i = skip_quote(&chars, i, &mut line),
                    _ => {}
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Method names whose single string argument is a key *lookup*.
const WIRE_READ_FNS: &[&str] = &["get", "remove", "contains_key"];

/// Scan `src` for wire-format key usage (L016): string literals in
/// call-argument position, classified as written — `insert("k", v)` or
/// the key slot of a `("k", v)` pair — or read — `get("k")` /
/// `remove("k")` / `contains_key("k")`. The lexer proper drops literal
/// bodies, so this is a raw-source pass reusing the same
/// literal-skipping machinery. Keys are filtered to snake_case
/// identifiers so format strings, error prose, and separators never
/// register. Returns `(is_write, key, line)` triples.
pub fn wire_keys(src: &str) -> Vec<(bool, String, u32)> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    // The most recent identifier and the previous significant character:
    // a key candidate is a string whose preceding character is `(`.
    let mut last_ident = String::new();
    let mut prev_sig = ' ';
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1u32;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            let open_line = line;
            let in_call = prev_sig == '(';
            let end = skip_string(&chars, i, &mut line);
            if in_call {
                // The body sits between the quotes; escapes disqualify
                // the key at the filter below, so a raw copy suffices.
                let body: String = chars[i + 1..end.saturating_sub(1).max(i + 1)]
                    .iter()
                    .collect();
                if is_wire_key(&body) {
                    let verdict = if WIRE_READ_FNS.contains(&last_ident.as_str()) {
                        Some(false)
                    } else if last_ident == "insert" {
                        Some(true)
                    } else {
                        // A `("k", ...)` pair: the key slot of a JSON
                        // object builder. Anything else (`Str("x")`,
                        // `perr("msg")`) is not a wire key.
                        let mut j = end;
                        while j < n && chars[j].is_whitespace() {
                            j += 1;
                        }
                        (chars.get(j) == Some(&',')).then_some(true)
                    };
                    if let Some(write) = verdict {
                        out.push((write, body, open_line));
                    }
                }
            }
            prev_sig = '"';
            i = end;
        } else if c == '\'' {
            i = skip_quote(&chars, i, &mut line);
            prev_sig = '\'';
        } else if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if i < n && matches!(text.as_str(), "r" | "b" | "br" | "rb") {
                match chars[i] {
                    '"' if text == "b" => {
                        i = skip_string(&chars, i, &mut line);
                        prev_sig = '"';
                        continue;
                    }
                    '"' | '#' if text != "b" => {
                        i = skip_raw_string(&chars, i, &mut line);
                        prev_sig = '"';
                        continue;
                    }
                    '\'' if text == "b" => {
                        i = skip_quote(&chars, i, &mut line);
                        prev_sig = '\'';
                        continue;
                    }
                    _ => {}
                }
            }
            prev_sig = text.chars().last().unwrap_or(' ');
            last_ident = text;
        } else {
            prev_sig = c;
            i += 1;
        }
    }
    out
}

/// A plausible wire key: a snake_case identifier (`cycles`,
/// `stall_cycles`, `ci_half_width`).
fn is_wire_key(s: &str) -> bool {
    let mut it = s.chars();
    match it.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    s.chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// A named struct field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub name: String,
    pub ty: String,
    pub line: u32,
    pub public: bool,
}

/// Enumerate every named-field struct declared in the token stream with
/// its fields. Tuple and unit structs appear with an empty field list.
pub fn all_structs(toks: &[Tok]) -> Vec<(String, u32, Vec<FieldDef>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_ident("struct") && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            let mut j = i + 2;
            let mut fields = Vec::new();
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "{" if toks[j].kind == TokKind::Punct => {
                        fields = parse_fields(toks, j);
                        break;
                    }
                    "(" | ";" if toks[j].kind == TokKind::Punct => break,
                    _ => j += 1,
                }
            }
            out.push((name, line, fields));
            i = j;
        }
        i += 1;
    }
    out
}

fn parse_fields(toks: &[Tok], open: usize) -> Vec<FieldDef> {
    let mut out = Vec::new();
    let mut i = open + 1;
    loop {
        // Skip attributes and visibility modifiers on the next field.
        loop {
            match toks.get(i) {
                Some(t) if t.is_punct("#") => {
                    // `#[...]` — skip the bracketed group.
                    i += 1;
                    if toks.get(i).map(|t| t.is_punct("[")) == Some(true) {
                        let mut depth = 0i32;
                        while let Some(t) = toks.get(i) {
                            if t.is_punct("[") {
                                depth += 1;
                            } else if t.is_punct("]") {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            i += 1;
                        }
                    }
                }
                Some(t) if t.is_punct(",") => i += 1,
                _ => break,
            }
        }
        let public = match toks.get(i) {
            Some(t) if t.is_ident("pub") => {
                i += 1;
                // `pub(crate)` and friends.
                if toks.get(i).map(|t| t.is_punct("(")) == Some(true) {
                    let mut depth = 0i32;
                    while let Some(t) = toks.get(i) {
                        if t.is_punct("(") {
                            depth += 1;
                        } else if t.is_punct(")") {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        i += 1;
                    }
                }
                true
            }
            _ => false,
        };
        let (name, line) = match toks.get(i) {
            Some(t) if t.kind == TokKind::Ident => (t.text.clone(), t.line),
            Some(t) if t.is_punct("}") => return out,
            _ => return out,
        };
        i += 1;
        if toks.get(i).map(|t| t.is_punct(":")) != Some(true) {
            return out;
        }
        i += 1;
        // Collect the type: everything up to a `,` or `}` at nesting depth
        // zero, tracking (), [], <> so generic arguments stay attached.
        let mut ty = String::new();
        let mut depth = 0i32;
        while let Some(t) = toks.get(i) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "," if depth == 0 => break,
                    "}" if depth <= 0 => break,
                    _ => {}
                }
            }
            ty.push_str(&t.text);
            i += 1;
        }
        out.push(FieldDef {
            name,
            ty,
            line,
            public,
        });
        match toks.get(i) {
            Some(t) if t.is_punct(",") => i += 1,
            _ => return out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let toks = lex("let s = \"a.unwrap()\"; // .expect()\n/* panic! */ let t = 'x';");
        assert!(toks
            .iter()
            .all(|t| t.text != "unwrap" && t.text != "expect" && t.text != "panic"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let toks = lex("fn f<'a>(x: &'a u8) -> &'a u8 { x }");
        assert!(toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn raw_strings_skip() {
        let toks = lex("let r = r#\"has \"quotes\" and .unwrap()\"#; let b = baseline;");
        assert!(toks.iter().any(|t| t.is_ident("baseline")));
        assert!(toks.iter().all(|t| t.text != "unwrap"));
    }

    #[test]
    fn struct_fields_extract_names_and_types() {
        let src = "pub struct S { pub a: u64, b: [u8; 3], pub c: Option<u32> }";
        let structs = all_structs(&lex(src));
        let (name, _, fields) = &structs[0];
        assert_eq!(name, "S");
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].name, "a");
        assert_eq!(fields[0].ty, "u64");
        assert!(fields[0].public);
        assert_eq!(fields[1].ty, "[u8;3]");
        assert!(!fields[1].public);
        assert_eq!(fields[2].ty, "Option<u32>");
    }

    #[test]
    fn wire_keys_classify_reads_and_writes() {
        let src = r#"
            fn to_json(&self) -> Json {
                let mut m = obj([("cycles", num(self.cycles)), ("cpi", num(self.cpi))]);
                m.insert("stats".to_string(), nested);
                write!(w, "{}", m).unwrap(); // format strings don't count
                Json::Str("cell".to_string());
                m
            }
            fn from_json(v: &Json) -> Self {
                let c = v.get("cycles").unwrap();
                if v.contains_key("cpi") { }
                let s = v.remove("stats");
                let label = other("prose, not a key");
                Self { c, s }
            }
        "#;
        let keys = wire_keys(src);
        let writes: Vec<&str> = keys
            .iter()
            .filter(|(w, _, _)| *w)
            .map(|(_, k, _)| k.as_str())
            .collect();
        let reads: Vec<&str> = keys
            .iter()
            .filter(|(w, _, _)| !*w)
            .map(|(_, k, _)| k.as_str())
            .collect();
        assert_eq!(writes, ["cycles", "cpi", "stats"]);
        assert_eq!(reads, ["cycles", "cpi", "stats"]);
    }

    #[test]
    fn wire_keys_ignore_non_key_strings() {
        let src = r##"
            fn f() {
                starts_with("content-length:");
                perr("configs must be non-empty");
                let r = r#"raw "quoted" body"#;
                assert_eq!(format!("{a}+{b}"), expected);
            }
        "##;
        assert!(wire_keys(src).is_empty());
    }
}
