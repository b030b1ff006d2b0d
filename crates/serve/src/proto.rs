//! Wire-protocol types: query requests, response lines, and their JSON
//! encodings. `docs/SERVICE.md` is the authoritative protocol document;
//! this module is its executable counterpart.
//!
//! A request names a *grid*: a list of machine configurations × a list
//! of workloads, plus a scale and an execution mode. The response is a
//! stream of newline-delimited JSON objects — one `cell` line per grid
//! cell (in completion order) and a final `summary` line.
//!
//! ```
//! use aurora_serve::proto::QueryRequest;
//!
//! let req = QueryRequest::from_json_str(
//!     r#"{"configs": [{"model": "baseline", "issue": "dual", "latency": {"fixed": 17}}],
//!         "workloads": ["espresso"], "scale": "test", "mode": "block"}"#,
//! )
//! .unwrap();
//! assert_eq!(req.workloads, ["espresso"]);
//! let cfgs = req.machine_configs().unwrap();
//! assert_eq!(cfgs[0].icache_bytes, 2048);
//! ```

use std::fmt;

use aurora_core::{
    IssueWidth, MachineConfig, MachineModel, SampledStats, SamplingConfig, SimStats,
};
use aurora_mem::LatencyModel;
use aurora_workloads::Scale;

use crate::json::{obj, Json};
use crate::store::Mode;

/// Hard cap on a request body, shared by both transports. A query
/// document is small; anything near this size is malformed or hostile.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Hard cap on the `configs` axis of one request grid.
pub const MAX_CONFIGS_PER_QUERY: usize = 512;

/// Hard cap on the `workloads` axis of one request grid.
pub const MAX_WORKLOADS_PER_QUERY: usize = 64;

/// Hard cap on the grid itself (`configs × workloads`). The per-axis
/// caps alone would admit a 32k-cell request; this is the budget a
/// single connection may ask the engine to simulate.
pub const MAX_CELLS_PER_QUERY: usize = 4096;

/// A malformed or unsatisfiable request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

fn perr<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(msg.into()))
}

/// One machine configuration in a request: a [`MachineModel`] preset
/// refined by optional per-knob overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpec {
    /// Preset row of the paper's Table 1: `"small"`, `"baseline"`,
    /// `"large"`.
    pub model: MachineModel,
    /// `"single"` or `"dual"` issue.
    pub issue: IssueWidth,
    /// Secondary memory latency model.
    pub latency: LatencyModel,
    /// Knob overrides applied after the preset, `(knob, value)` in
    /// request order.
    pub overrides: Vec<(String, f64)>,
}

impl ConfigSpec {
    /// Resolves the spec to a full [`MachineConfig`], applying overrides
    /// and validating the result.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] for an unknown override knob, an
    /// out-of-range value, or a config failing
    /// [`MachineConfig::validate`].
    pub fn resolve(&self) -> Result<MachineConfig, ProtoError> {
        let mut cfg = self.model.config(self.issue, self.latency);
        for (knob, value) in &self.overrides {
            apply_override(&mut cfg, knob, *value)?;
        }
        if let Err(e) = cfg.validate() {
            return perr(format!("invalid config: {e}"));
        }
        Ok(cfg)
    }

    fn from_json(v: &Json) -> Result<ConfigSpec, ProtoError> {
        let model = match v.get("model").and_then(Json::as_str).unwrap_or("baseline") {
            "small" => MachineModel::Small,
            "baseline" => MachineModel::Baseline,
            "large" => MachineModel::Large,
            other => return perr(format!("unknown model `{other}`")),
        };
        let issue = match v.get("issue").and_then(Json::as_str).unwrap_or("dual") {
            "single" => IssueWidth::Single,
            "dual" => IssueWidth::Dual,
            other => return perr(format!("unknown issue width `{other}`")),
        };
        let latency = match v.get("latency") {
            None => LatencyModel::Fixed(17),
            Some(l) => parse_latency(l)?,
        };
        let mut overrides = Vec::new();
        if let Some(Json::Obj(members)) = v.get("overrides") {
            for (knob, value) in members {
                if !OVERRIDE_KNOBS.contains(&knob.as_str()) {
                    return perr(format!(
                        "unknown override `{knob}` (supported: {})",
                        OVERRIDE_KNOBS.join(", ")
                    ));
                }
                let Some(n) = value
                    .as_f64()
                    .or_else(|| value.as_bool().map(|b| if b { 1.0 } else { 0.0 }))
                else {
                    return perr(format!("override `{knob}` must be a number or boolean"));
                };
                overrides.push((knob.clone(), n));
            }
        }
        Ok(ConfigSpec {
            model,
            issue,
            latency,
            overrides,
        })
    }
}

/// The override knobs a request may set, mirroring the sweepable fields
/// of [`MachineConfig`]. Booleans travel as JSON `true`/`false`.
const OVERRIDE_KNOBS: &[&str] = &[
    "rob_entries",
    "mshr_entries",
    "write_cache_lines",
    "prefetch_buffers",
    "prefetch_depth",
    "prefetch_enabled",
    "branch_folding",
    "write_validation",
    "dcache_latency",
    "seed",
];

fn apply_override(cfg: &mut MachineConfig, knob: &str, value: f64) -> Result<(), ProtoError> {
    let as_usize = || -> Result<usize, ProtoError> {
        if value.fract() == 0.0 && (0.0..1e9).contains(&value) {
            Ok(value as usize)
        } else {
            perr(format!(
                "override `{knob}` must be a small non-negative integer"
            ))
        }
    };
    let as_bool = || -> Result<bool, ProtoError> {
        match value {
            0.0 => Ok(false),
            1.0 => Ok(true),
            _ => perr(format!("override `{knob}` must be a boolean")),
        }
    };
    match knob {
        "rob_entries" => cfg.rob_entries = as_usize()?,
        "mshr_entries" => cfg.mshr_entries = as_usize()?,
        "write_cache_lines" => cfg.write_cache_lines = as_usize()?,
        "prefetch_buffers" => cfg.prefetch_buffers = as_usize()?,
        "prefetch_depth" => cfg.prefetch_depth = as_usize()?,
        "prefetch_enabled" => cfg.prefetch_enabled = as_bool()?,
        "branch_folding" => cfg.branch_folding = as_bool()?,
        "write_validation" => cfg.write_validation = as_bool()?,
        "dcache_latency" => cfg.dcache_latency = as_usize()? as u32,
        "seed" => cfg.seed = as_usize()? as u64,
        other => {
            return perr(format!(
                "unknown override `{other}` (supported: {})",
                OVERRIDE_KNOBS.join(", ")
            ))
        }
    }
    cfg.name = format!("{}+{}", cfg.name, knob);
    Ok(())
}

fn parse_latency(v: &Json) -> Result<LatencyModel, ProtoError> {
    let model = latency_model(v)?;
    model
        .validate()
        .map_err(|e| ProtoError(format!("latency: {e}")))?;
    Ok(model)
}

/// Narrows a request integer into a field's type, rejecting (rather than
/// truncating) a value the field cannot hold.
fn narrow<T: TryFrom<u64>>(n: u64, field: &str) -> Result<T, ProtoError> {
    T::try_from(n).map_err(|_| ProtoError(format!("{field} {n} is out of range")))
}

fn latency_model(v: &Json) -> Result<LatencyModel, ProtoError> {
    if let Some(n) = v.get("fixed").and_then(Json::as_u64) {
        return Ok(LatencyModel::Fixed(narrow(n, "latency.fixed")?));
    }
    if let Some(arr) = v.get("uniform").and_then(Json::as_array) {
        if let [lo, hi] = arr {
            if let (Some(lo), Some(hi)) = (lo.as_u64(), hi.as_u64()) {
                return Ok(LatencyModel::Uniform {
                    lo: narrow(lo, "latency.uniform lo")?,
                    hi: narrow(hi, "latency.uniform hi")?,
                });
            }
        }
        return perr("latency.uniform must be [lo, hi]");
    }
    if let Some(b) = v.get("bimodal") {
        let field = |k: &str| {
            b.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError(format!("latency.bimodal.{k} must be an integer")))
        };
        return Ok(LatencyModel::Bimodal {
            hit: narrow(field("hit")?, "latency.bimodal.hit")?,
            miss: narrow(field("miss")?, "latency.bimodal.miss")?,
            hit_permille: narrow(field("hit_permille")?, "latency.bimodal.hit_permille")?,
        });
    }
    perr(r#"latency must be {"fixed": n}, {"uniform": [lo, hi]} or {"bimodal": {...}}"#)
}

/// A parsed design-space query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The configurations to sweep.
    pub configs: Vec<ConfigSpec>,
    /// Workload names (resolved by
    /// [`workload_by_name`](aurora_workloads::workload_by_name)).
    pub workloads: Vec<String>,
    /// Kernel scale; defaults to [`Scale::Small`].
    pub scale: Scale,
    /// Execution mode; defaults to [`Mode::Block`].
    pub mode: Mode,
    /// Sampling parameters for [`Mode::Sampled`]; defaults to
    /// [`SamplingConfig::recommended`]. Ignored in exact modes.
    pub sampling: SamplingConfig,
}

impl QueryRequest {
    /// Parses a request from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] for malformed JSON, missing/empty
    /// `configs` or `workloads`, or any unknown enum value.
    pub fn from_json_str(text: &str) -> Result<QueryRequest, ProtoError> {
        let v = Json::parse(text).map_err(|e| ProtoError(format!("bad JSON: {e}")))?;
        QueryRequest::from_json(&v)
    }

    /// Parses a request from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// See [`QueryRequest::from_json_str`].
    pub fn from_json(v: &Json) -> Result<QueryRequest, ProtoError> {
        let Some(config_list) = v.get("configs").and_then(Json::as_array) else {
            return perr("request needs a non-empty `configs` array");
        };
        // Axis caps come before anything derives a size from the lists:
        // these lengths are attacker-controlled until this point.
        if config_list.len() > MAX_CONFIGS_PER_QUERY {
            return perr(format!(
                "`configs` lists {} entries; the limit is {MAX_CONFIGS_PER_QUERY}",
                config_list.len()
            ));
        }
        let configs = config_list
            .iter()
            .map(ConfigSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if configs.is_empty() {
            return perr("`configs` must not be empty");
        }
        let Some(workload_list) = v.get("workloads").and_then(Json::as_array) else {
            return perr("request needs a non-empty `workloads` array");
        };
        if workload_list.len() > MAX_WORKLOADS_PER_QUERY {
            return perr(format!(
                "`workloads` lists {} entries; the limit is {MAX_WORKLOADS_PER_QUERY}",
                workload_list.len()
            ));
        }
        let workloads = workload_list
            .iter()
            .map(|w| {
                w.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| ProtoError("workload names must be strings".to_owned()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if workloads.is_empty() {
            return perr("`workloads` must not be empty");
        }
        let cells = configs.len().saturating_mul(workloads.len());
        if cells > MAX_CELLS_PER_QUERY {
            return perr(format!(
                "request names {cells} grid cells ({} configs x {} workloads); the limit \
                 is {MAX_CELLS_PER_QUERY}",
                configs.len(),
                workloads.len()
            ));
        }
        let scale = match v.get("scale").and_then(Json::as_str).unwrap_or("small") {
            "test" => Scale::Test,
            "small" => Scale::Small,
            "full" => Scale::Full,
            other => return perr(format!("unknown scale `{other}`")),
        };
        let mode = match v.get("mode").and_then(Json::as_str) {
            None => Mode::Block,
            Some(name) => match Mode::from_name(name) {
                Some(m) => m,
                None => return perr(format!("unknown mode `{name}`")),
            },
        };
        let mut sampling = SamplingConfig::recommended();
        if let Some(s) = v.get("sampling") {
            let field = |k: &str, default: usize| {
                s.get(k)
                    .map(|n| {
                        n.as_u64().map(|n| n as usize).ok_or_else(|| {
                            ProtoError(format!("sampling.{k} must be a non-negative integer"))
                        })
                    })
                    .unwrap_or(Ok(default))
            };
            sampling.window_ops = field("window_ops", sampling.window_ops)?;
            sampling.warmup_ops = field("warmup_ops", sampling.warmup_ops)?;
            sampling.interval_ops = field("interval_ops", sampling.interval_ops)?;
            if let Err(e) = sampling.validate() {
                return perr(format!("invalid sampling config: {e}"));
            }
        }
        Ok(QueryRequest {
            configs,
            workloads,
            scale,
            mode,
            sampling,
        })
    }

    /// Resolves every [`ConfigSpec`] to a validated [`MachineConfig`].
    ///
    /// # Errors
    ///
    /// Returns the first spec's [`ProtoError`], tagged with its index.
    pub fn machine_configs(&self) -> Result<Vec<MachineConfig>, ProtoError> {
        self.configs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                spec.resolve()
                    .map_err(|e| ProtoError(format!("configs[{i}]: {e}")))
            })
            .collect()
    }
}

/// Where a cell's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Answered from the persistent [`ResultStore`](crate::ResultStore).
    Memo,
    /// Simulated by this query.
    Simulated,
}

impl CellSource {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            CellSource::Memo => "memo",
            CellSource::Simulated => "simulated",
        }
    }
}

/// One cell's result payload.
///
/// The exact variant is the common case, so `SimStats` stays inline
/// rather than boxed — the size skew is deliberate.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum CellResult {
    /// An exact run (detailed or block mode): full statistics.
    Exact(SimStats),
    /// A sampled estimate with its confidence interval.
    Sampled(SampledStats),
}

/// One line of the NDJSON response stream.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Cell dominates the stream; see CellResult
pub enum ResponseLine {
    /// A finished grid cell.
    Cell {
        /// Index into the request's `configs`.
        config_index: usize,
        /// The resolved configuration's display name.
        config_name: String,
        /// The workload name.
        workload: String,
        /// Memo hit or fresh simulation.
        source: CellSource,
        /// The result payload.
        result: CellResult,
    },
    /// The final line of a successful response.
    Summary(QuerySummary),
    /// A terminal error; no further lines follow.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// Aggregate accounting for one query, sent as the last response line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySummary {
    /// Grid cells in the request.
    pub cells: usize,
    /// Cells answered from the result store.
    pub memo_hits: usize,
    /// Cells simulated by this query.
    pub simulated: usize,
    /// Wall-clock seconds spent simulating cold cells (zero for an
    /// all-warm query).
    pub cold_wall_seconds: f64,
    /// Achieved parallelism of the cold-cell drain (see
    /// [`MatrixMetrics::achieved_parallelism`]); zero for an all-warm
    /// query.
    ///
    /// [`MatrixMetrics::achieved_parallelism`]:
    ///     aurora_bench::harness::MatrixMetrics::achieved_parallelism
    pub achieved_parallelism: f64,
}

impl ResponseLine {
    /// Renders the line as a single-line JSON document (no trailing
    /// newline).
    pub fn to_json(&self) -> Json {
        match self {
            ResponseLine::Cell {
                config_index,
                config_name,
                workload,
                source,
                result,
            } => {
                let mut o = obj([
                    ("type", Json::Str("cell".to_owned())),
                    ("config", Json::Num(*config_index as f64)),
                    ("config_name", Json::Str(config_name.clone())),
                    ("workload", Json::Str(workload.clone())),
                    ("source", Json::Str(source.name().to_owned())),
                ]);
                let payload = match result {
                    CellResult::Exact(stats) => exact_json(stats),
                    CellResult::Sampled(s) => sampled_json(s),
                };
                if let Json::Obj(members) = &mut o {
                    members.insert("stats".to_owned(), payload);
                }
                o
            }
            ResponseLine::Summary(s) => obj([
                ("type", Json::Str("summary".to_owned())),
                ("cells", Json::Num(s.cells as f64)),
                ("memo_hits", Json::Num(s.memo_hits as f64)),
                ("simulated", Json::Num(s.simulated as f64)),
                ("cold_wall_seconds", Json::Num(s.cold_wall_seconds)),
                ("achieved_parallelism", Json::Num(s.achieved_parallelism)),
            ]),
            ResponseLine::Error { message } => obj([
                ("type", Json::Str("error".to_owned())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }
}

/// The stats object for an exact cell. Counters are plain JSON numbers
/// (all far below 2^53); the stats *fingerprint* is a hex string, since
/// a 64-bit hash does not survive an f64 round trip.
fn exact_json(stats: &SimStats) -> Json {
    obj([
        ("cycles", Json::Num(stats.cycles as f64)),
        ("instructions", Json::Num(stats.instructions as f64)),
        ("cpi", Json::Num(stats.cpi())),
        ("stall_cycles", Json::Num(stats.stalls.total() as f64)),
        ("dual_issues", Json::Num(stats.dual_issues as f64)),
        ("fp_instructions", Json::Num(stats.fp_instructions as f64)),
        (
            "fingerprint",
            Json::Str(format!("{:#018x}", stats.fingerprint())),
        ),
    ])
}

fn sampled_json(s: &SampledStats) -> Json {
    obj([
        ("instructions", Json::Num(s.instructions as f64)),
        (
            "detailed_instructions",
            Json::Num(s.detailed_instructions as f64),
        ),
        ("windows", Json::Num(s.windows as f64)),
        ("cpi", Json::Num(s.cpi)),
        ("ci_half_width", Json::Num(s.ci_half_width)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_defaults_fill_in() {
        let req =
            QueryRequest::from_json_str(r#"{"configs": [{}], "workloads": ["compress"]}"#).unwrap();
        assert_eq!(req.scale, Scale::Small);
        assert_eq!(req.mode, Mode::Block);
        assert_eq!(req.configs[0].model, MachineModel::Baseline);
        assert_eq!(req.configs[0].latency, LatencyModel::Fixed(17));
    }

    #[test]
    fn overrides_change_the_resolved_config() {
        let req = QueryRequest::from_json_str(
            r#"{"configs": [{"model": "small", "issue": "single",
                             "overrides": {"mshr_entries": 4, "prefetch_enabled": false}}],
                "workloads": ["espresso"], "scale": "test"}"#,
        )
        .unwrap();
        let cfg = &req.machine_configs().unwrap()[0];
        assert_eq!(cfg.mshr_entries, 4);
        assert!(!cfg.prefetch_enabled);
        assert_eq!(cfg.icache_bytes, 1024);
    }

    #[test]
    fn bad_requests_are_rejected_with_context() {
        for (src, needle) in [
            (r#"{"workloads": ["a"]}"#, "configs"),
            (r#"{"configs": [{}], "workloads": []}"#, "workloads"),
            (
                r#"{"configs": [{}], "workloads": ["a"], "mode": "warp"}"#,
                "mode",
            ),
            (
                r#"{"configs": [{"overrides": {"warp_factor": 9}}], "workloads": ["a"]}"#,
                "warp_factor",
            ),
            (
                r#"{"configs": [{"latency": {"uniform": [3]}}], "workloads": ["a"]}"#,
                "uniform",
            ),
            // An empty range would panic at the first miss's sample.
            (
                r#"{"configs": [{"latency": {"uniform": [30, 10]}}], "workloads": ["a"]}"#,
                "lo 30 exceeds hi 10",
            ),
            // Values past the field's width are refused, not truncated
            // into a config the client never asked for.
            (
                r#"{"configs": [{"latency": {"fixed": 4294967313}}], "workloads": ["a"]}"#,
                "latency.fixed 4294967313 is out of range",
            ),
            (
                r#"{"configs": [{"latency": {"uniform": [4294967306, 4294967326]}}],
                    "workloads": ["a"]}"#,
                "latency.uniform lo 4294967306 is out of range",
            ),
            (
                r#"{"configs": [{"latency": {"bimodal":
                    {"hit": 10, "miss": 40, "hit_permille": 66036}}}], "workloads": ["a"]}"#,
                "hit_permille 66036 is out of range",
            ),
            (
                r#"{"configs": [{"latency": {"bimodal":
                    {"hit": 10, "miss": 40, "hit_permille": 1001}}}], "workloads": ["a"]}"#,
                "hit_permille 1001 exceeds 1000",
            ),
        ] {
            let err = QueryRequest::from_json_str(src).unwrap_err();
            assert!(err.0.contains(needle), "{src} -> {err}");
        }
    }

    #[test]
    fn oversized_grids_are_rejected_at_parse_time() {
        let many_configs = vec!["{}"; MAX_CONFIGS_PER_QUERY + 1].join(",");
        let src = format!(r#"{{"configs": [{many_configs}], "workloads": ["a"]}}"#);
        let err = QueryRequest::from_json_str(&src).unwrap_err();
        assert!(err.0.contains("limit"), "{err}");
        assert!(err.0.contains("configs"), "{err}");

        let many_workloads: Vec<String> = (0..=MAX_WORKLOADS_PER_QUERY)
            .map(|i| format!("\"w{i}\""))
            .collect();
        let src = format!(
            r#"{{"configs": [{{}}], "workloads": [{}]}}"#,
            many_workloads.join(",")
        );
        let err = QueryRequest::from_json_str(&src).unwrap_err();
        assert!(err.0.contains("limit"), "{err}");
        assert!(err.0.contains("workloads"), "{err}");

        // Each axis within its cap, but the grid product over budget.
        let configs = vec!["{}"; 256].join(",");
        let workloads: Vec<String> = (0..32).map(|i| format!("\"w{i}\"")).collect();
        let src = format!(
            r#"{{"configs": [{configs}], "workloads": [{}]}}"#,
            workloads.join(",")
        );
        let err = QueryRequest::from_json_str(&src).unwrap_err();
        assert!(err.0.contains("grid cells"), "{err}");

        // At the caps exactly, the request parses.
        let src = format!(
            r#"{{"configs": [{}], "workloads": ["a"]}}"#,
            vec!["{}"; MAX_CONFIGS_PER_QUERY].join(",")
        );
        assert!(QueryRequest::from_json_str(&src).is_ok());
    }

    #[test]
    fn latency_forms_parse() {
        let req = QueryRequest::from_json_str(
            r#"{"configs": [{"latency": {"uniform": [9, 25]}},
                            {"latency": {"bimodal": {"hit": 10, "miss": 40, "hit_permille": 750}}}],
                "workloads": ["li"]}"#,
        )
        .unwrap();
        assert_eq!(
            req.configs[0].latency,
            LatencyModel::Uniform { lo: 9, hi: 25 }
        );
        assert_eq!(
            req.configs[1].latency,
            LatencyModel::Bimodal {
                hit: 10,
                miss: 40,
                hit_permille: 750
            }
        );
    }

    #[test]
    fn response_lines_render_as_single_json_objects() {
        let line = ResponseLine::Summary(QuerySummary {
            cells: 4,
            memo_hits: 4,
            simulated: 0,
            cold_wall_seconds: 0.0,
            achieved_parallelism: 0.0,
        });
        let text = line.to_json().to_string();
        assert!(text.contains(r#""memo_hits":4"#), "{text}");
        assert!(!text.contains('\n'));
        let err = ResponseLine::Error {
            message: "boom".to_owned(),
        };
        assert!(err.to_json().to_string().contains("boom"));
    }
}
