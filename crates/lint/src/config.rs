//! Parser for `lint.toml` — a deliberately small TOML subset.
//!
//! Supported syntax: `#` comments, `[table]` headers, `[[array-of-tables]]`
//! headers, and `key = value` pairs where a value is a quoted string, an
//! integer, a bool, or a (possibly multiline) array of those. That is all
//! the checked-in configuration needs, and keeping the grammar this small
//! is what lets the analyzer stay zero-dependency.

use std::fmt;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    List(Vec<Value>),
}

impl Value {
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_str_list(&self) -> Option<Vec<String>> {
        match self {
            Value::List(items) => items
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect(),
            _ => None,
        }
    }
}

/// One `[[hot]]` entry: a file and its declared hot-path *roots*. The
/// analyzer computes the full hot set transitively from these over the
/// workspace call graph — leaf helpers are no longer listed here.
#[derive(Debug, Clone, Default)]
pub struct HotFile {
    pub file: String,
    /// Root declarations: `"name"` or `"Type::name"`.
    pub roots: Vec<String>,
}

/// One `[[untrusted]]` entry: where attacker-controlled bytes enter, and
/// which functions in the same file are trusted to bound them.
#[derive(Debug, Clone, Default)]
pub struct UntrustedFile {
    pub file: String,
    /// Source declarations: `"name"` or `"Type::name"`. The return value
    /// (and the parameters) of each is attacker-controlled.
    pub roots: Vec<String>,
    /// Range-validated constructors: taint flows *into* these (so their
    /// internal guards stay under analysis) but their return value is
    /// clean — they reject out-of-range input instead of propagating it.
    pub sanitizers: Vec<String>,
}

/// `[stats]` — where the counter structs live and where reads may come from.
#[derive(Debug, Clone, Default)]
pub struct StatsScope {
    pub file: String,
    pub structs: Vec<String>,
    pub read_scope: Vec<String>,
}

#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    pub exclude: Vec<String>,
    pub hot: Vec<HotFile>,
    /// `[[pool]]` entries: worker-loop roots whose reachable set must stay
    /// free of blocking calls (L013). Same shape as `[[hot]]`.
    pub pool: Vec<HotFile>,
    pub stats: StatsScope,
    /// `[[untrusted]]` entries: functions whose return value (and, for
    /// handlers, whose parameters) carry attacker-controlled bytes. The
    /// taint pass (L015) seeds its worklist here.
    pub untrusted: Vec<UntrustedFile>,
}

#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml: {}", self.0)
    }
}

impl LintConfig {
    pub fn load(path: &Path) -> Result<LintConfig, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<LintConfig, ConfigError> {
        let mut cfg = LintConfig::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = header(&line, "[[", "]]") {
                section = name.to_string();
                if section == "hot" {
                    cfg.hot.push(HotFile::default());
                } else if section == "pool" {
                    cfg.pool.push(HotFile::default());
                } else if section == "untrusted" {
                    cfg.untrusted.push(UntrustedFile::default());
                }
                continue;
            }
            if let Some(name) = header(&line, "[", "]") {
                section = name.to_string();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(ConfigError(format!(
                    "line {}: expected `key = value`",
                    idx + 1
                )));
            };
            let key = line[..eq].trim().to_string();
            let mut value_text = line[eq + 1..].trim().to_string();
            // A multiline array: keep consuming lines until brackets balance
            // (bracket characters inside quoted strings don't count).
            while !balanced(&value_text) {
                match lines.next() {
                    Some((_, next)) => {
                        value_text.push(' ');
                        value_text.push_str(strip_comment(next).trim());
                    }
                    None => {
                        return Err(ConfigError(format!(
                            "line {}: unterminated array for key `{key}`",
                            idx + 1
                        )))
                    }
                }
            }
            let value = parse_value(&value_text)
                .ok_or_else(|| ConfigError(format!("line {}: bad value for `{key}`", idx + 1)))?;
            cfg.assign(&section, &key, value, idx + 1)?;
        }
        Ok(cfg)
    }

    fn assign(
        &mut self,
        section: &str,
        key: &str,
        value: Value,
        line: usize,
    ) -> Result<(), ConfigError> {
        let err = |what: &str| ConfigError(format!("line {line}: {what}"));
        let want_str = |v: &Value| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| err("expected a string"))
        };
        let want_list = |v: &Value| {
            v.as_str_list()
                .ok_or_else(|| err("expected a string array"))
        };
        match (section, key) {
            ("", "exclude") => self.exclude = want_list(&value)?,
            ("hot", "file") => {
                let entry = self
                    .hot
                    .last_mut()
                    .ok_or_else(|| err("no [[hot]] entry open"))?;
                entry.file = want_str(&value)?;
            }
            ("hot", "roots") => {
                let entry = self
                    .hot
                    .last_mut()
                    .ok_or_else(|| err("no [[hot]] entry open"))?;
                entry.roots = want_list(&value)?;
            }
            ("hot", "functions") => {
                return Err(err(
                    "[[hot]] `functions` lists were replaced by `roots`: the analyzer now \
                     computes reachable hot functions transitively over the workspace call \
                     graph. Declare only the entry points (e.g. roots = [\"Simulator::feed\"]) \
                     and delete the exhaustive function list — see docs/LINTS.md",
                ))
            }
            ("pool", "file") => {
                let entry = self
                    .pool
                    .last_mut()
                    .ok_or_else(|| err("no [[pool]] entry open"))?;
                entry.file = want_str(&value)?;
            }
            ("pool", "roots") => {
                let entry = self
                    .pool
                    .last_mut()
                    .ok_or_else(|| err("no [[pool]] entry open"))?;
                entry.roots = want_list(&value)?;
            }
            ("untrusted", "file") => {
                let entry = self
                    .untrusted
                    .last_mut()
                    .ok_or_else(|| err("no [[untrusted]] entry open"))?;
                entry.file = want_str(&value)?;
            }
            ("untrusted", "roots") => {
                let entry = self
                    .untrusted
                    .last_mut()
                    .ok_or_else(|| err("no [[untrusted]] entry open"))?;
                entry.roots = want_list(&value)?;
            }
            ("untrusted", "sanitizers") => {
                let entry = self
                    .untrusted
                    .last_mut()
                    .ok_or_else(|| err("no [[untrusted]] entry open"))?;
                entry.sanitizers = want_list(&value)?;
            }
            ("stats", "file") => self.stats.file = want_str(&value)?,
            ("stats", "structs") => self.stats.structs = want_list(&value)?,
            ("stats", "read_scope") => self.stats.read_scope = want_list(&value)?,
            _ => {
                return Err(err(&format!(
                    "unknown key `{key}` in section `[{section}]`"
                )))
            }
        }
        Ok(())
    }
}

fn header<'a>(line: &'a str, open: &str, close: &str) -> Option<&'a str> {
    let inner = line.strip_prefix(open)?.strip_suffix(close)?;
    // `[[x]]` also matches the `[`/`]` pattern, so reject leftover brackets.
    if inner.contains('[') || inner.contains(']') {
        None
    } else {
        Some(inner.trim())
    }
}

/// Strip a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// True when every `[` outside a string has a matching `]`.
fn balanced(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in text.chars() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    depth == 0 && !in_str
}

fn parse_value(text: &str) -> Option<Value> {
    let mut chars: Vec<char> = text.chars().collect();
    // Drop trailing commas so `"a", ` parses after array splitting.
    while matches!(chars.last(), Some(c) if c.is_whitespace() || *c == ',') {
        chars.pop();
    }
    let (value, rest) = parse_one(&chars, 0)?;
    if chars[rest..].iter().all(|c| c.is_whitespace()) {
        Some(value)
    } else {
        None
    }
}

fn parse_one(chars: &[char], mut i: usize) -> Option<(Value, usize)> {
    while i < chars.len() && chars[i].is_whitespace() {
        i += 1;
    }
    match chars.get(i)? {
        '"' => {
            let mut s = String::new();
            i += 1;
            while i < chars.len() {
                match chars[i] {
                    '\\' if i + 1 < chars.len() => {
                        s.push(chars[i + 1]);
                        i += 2;
                    }
                    '"' => return Some((Value::Str(s), i + 1)),
                    c => {
                        s.push(c);
                        i += 1;
                    }
                }
            }
            None
        }
        '[' => {
            let mut items = Vec::new();
            i += 1;
            loop {
                while i < chars.len() && (chars[i].is_whitespace() || chars[i] == ',') {
                    i += 1;
                }
                match chars.get(i) {
                    Some(']') => return Some((Value::List(items), i + 1)),
                    Some(_) => {
                        let (v, next) = parse_one(chars, i)?;
                        items.push(v);
                        i = next;
                    }
                    None => return None,
                }
            }
        }
        c if c.is_ascii_digit() || *c == '-' => {
            let start = i;
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
            let s: String = chars[start..i].iter().filter(|c| **c != '_').collect();
            s.parse().ok().map(|v| (Value::Int(v), i))
        }
        _ => {
            let start = i;
            while i < chars.len() && chars[i].is_alphanumeric() {
                i += 1;
            }
            match chars[start..i].iter().collect::<String>().as_str() {
                "true" => Some((Value::Bool(true), i)),
                "false" => Some((Value::Bool(false), i)),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_shape() {
        let text = r##"
# comment
exclude = ["target", "vendor"]

[[hot]]
file = "crates/core/src/sim.rs"
roots = [
    "Simulator::feed", # trailing comment
    "advance_to",
]

[[hot]]
file = "crates/mem/src/mshr.rs"
roots = ["MshrFile::probe"]

[[pool]]
file = "crates/bench/src/harness.rs"
roots = ["drain_worker"]

[stats]
file = "crates/core/src/stats.rs"
structs = ["SimStats"]
read_scope = ["crates", "tests"]

[[untrusted]]
file = "crates/json/src/lib.rs"
roots = ["Json::parse"]
sanitizers = ["QueryRequest::from_json_str"]
"##;
        let cfg = LintConfig::parse(text).unwrap();
        assert_eq!(cfg.exclude, vec!["target", "vendor"]);
        assert_eq!(cfg.hot.len(), 2);
        assert_eq!(cfg.hot[0].roots, vec!["Simulator::feed", "advance_to"]);
        assert_eq!(cfg.hot[1].file, "crates/mem/src/mshr.rs");
        assert_eq!(cfg.pool.len(), 1);
        assert_eq!(cfg.pool[0].roots, vec!["drain_worker"]);
        assert_eq!(cfg.stats.structs, vec!["SimStats"]);
        assert_eq!(cfg.untrusted.len(), 1);
        assert_eq!(cfg.untrusted[0].roots, vec!["Json::parse"]);
        assert_eq!(
            cfg.untrusted[0].sanitizers,
            vec!["QueryRequest::from_json_str"]
        );
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(LintConfig::parse("bogus = 3").is_err());
        assert!(LintConfig::parse("[config_coverage]\nfile = \"config.rs\"\n").is_err());
    }

    #[test]
    fn legacy_functions_key_gets_a_migration_error() {
        let err = LintConfig::parse("[[hot]]\nfile = \"a.rs\"\nfunctions = [\"feed\"]\n")
            .expect_err("legacy schema must be rejected, not ignored");
        assert!(err.to_string().contains("roots"), "{err}");
        assert!(err.to_string().contains("transitively"), "{err}");
    }
}
