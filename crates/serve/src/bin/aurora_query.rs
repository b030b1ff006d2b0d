//! The `aurora-query` client: builds (or forwards) a design-space query,
//! sends it to a running `aurora-serve` daemon and prints the NDJSON
//! response stream to stdout.
//!
//! ```text
//! aurora-query (--unix PATH | --http ADDR)
//!              [--json REQUEST]                     # raw request, or:
//!              [--workloads a,b,...] [--models small,baseline,large]
//!              [--issue single,dual] [--latency N] [--scale S] [--mode M]
//! ```
//!
//! Without `--json`, a request grid is built as the cross product of
//! `--models` × `--issue` (each at `--latency`). Exits non-zero if the
//! stream ends in an error line or without a summary.

use std::process::ExitCode;

use aurora_serve::client;
use aurora_serve::json::{obj, Json};

struct Args {
    unix: Option<String>,
    http: Option<String>,
    json: Option<String>,
    workloads: String,
    models: String,
    issue: String,
    latency: u32,
    scale: String,
    mode: String,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            unix: None,
            http: None,
            json: None,
            workloads: "espresso,compress".to_owned(),
            models: "baseline".to_owned(),
            issue: "dual".to_owned(),
            latency: 17,
            scale: "small".to_owned(),
            mode: "block".to_owned(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--unix" => args.unix = Some(value("--unix")?),
            "--http" => args.http = Some(value("--http")?),
            "--json" => args.json = Some(value("--json")?),
            "--workloads" => args.workloads = value("--workloads")?,
            "--models" => args.models = value("--models")?,
            "--issue" => args.issue = value("--issue")?,
            "--latency" => {
                args.latency = value("--latency")?
                    .parse()
                    .map_err(|e| format!("--latency: {e}"))?;
            }
            "--scale" => args.scale = value("--scale")?,
            "--mode" => args.mode = value("--mode")?,
            "--help" | "-h" => return Err("help".to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn build_request(args: &Args) -> String {
    if let Some(json) = &args.json {
        return json.clone();
    }
    let string = |s: &str| Json::Str(s.to_owned());
    let configs = args
        .models
        .split(',')
        .flat_map(|model| {
            args.issue.split(',').map(move |issue| {
                obj([
                    ("model", string(model)),
                    ("issue", string(issue)),
                    (
                        "latency",
                        obj([("fixed", Json::Num(f64::from(args.latency)))]),
                    ),
                ])
            })
        })
        .collect();
    obj([
        ("configs", Json::Arr(configs)),
        (
            "workloads",
            Json::Arr(args.workloads.split(',').map(string).collect()),
        ),
        ("scale", string(&args.scale)),
        ("mode", string(&args.mode)),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: aurora-query (--unix PATH | --http ADDR) [--json REQ] \
                 [--workloads a,b] [--models m1,m2] [--issue single,dual] \
                 [--latency N] [--scale S] [--mode M]"
            );
            if e == "help" {
                return ExitCode::SUCCESS;
            }
            eprintln!("aurora-query: {e}");
            return ExitCode::FAILURE;
        }
    };
    let request = build_request(&args);
    let mut saw_summary = false;
    let mut saw_error = false;
    let mut on_line = |line: &str| {
        println!("{line}");
        match client::line_type(line).as_deref() {
            Some("summary") => saw_summary = true,
            Some("error") => saw_error = true,
            _ => {}
        }
    };
    let sent = match (&args.unix, &args.http) {
        (Some(path), _) => client::query_unix(std::path::Path::new(path), &request, &mut on_line),
        (None, Some(addr)) => client::query_http(addr, &request, &mut on_line),
        (None, None) => {
            eprintln!("aurora-query: one of --unix PATH / --http ADDR is required");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = sent {
        eprintln!("aurora-query: {e}");
        return ExitCode::FAILURE;
    }
    if saw_error || !saw_summary {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_escaped_into_the_request() {
        let odd = r#"a"quoted\name"#;
        let args = Args {
            workloads: format!("{odd},espresso"),
            issue: "single,dual".to_owned(),
            ..Args::default()
        };
        let req = Json::parse(&build_request(&args)).expect("request parses");
        let workloads = req.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads[0].as_str(), Some(odd));
        assert_eq!(workloads[1].as_str(), Some("espresso"));
        let configs = req.get("configs").and_then(Json::as_array).unwrap();
        assert_eq!(configs.len(), 2);
        assert_eq!(configs[1].get("issue").and_then(Json::as_str), Some("dual"));
        let fixed = configs[0].get("latency").and_then(|l| l.get("fixed"));
        assert_eq!(fixed.and_then(Json::as_u64), Some(17));
    }
}
