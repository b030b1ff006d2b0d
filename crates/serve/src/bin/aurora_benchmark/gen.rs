//! Seeded inputs: the sweep grids, the daemon's primed configurations
//! and its query lists. Everything here is a pure function of the seed,
//! so one seed always feeds the program the same inputs; the program
//! itself never sees the seed.

use aurora_core::{IssueWidth, MachineConfig, MachineModel};
use aurora_isa::Fnv1a;
use aurora_mem::LatencyModel;
use aurora_serve::json::{obj, Json};
use aurora_serve::proto::{ConfigSpec, ProtoError};
use aurora_serve::Mode;
use aurora_workloads::{FpBenchmark, IntBenchmark, Scale, Workload};

/// Client threads (and so connections) the serve load uses. Fixed, not
/// derived from the host, so that numbers compare across hosts.
pub const CLIENTS: usize = 2;

/// Configurations primed into the daemon's store before a serve run.
pub const PRIMED_CONFIGS: usize = 24;

/// Exact cells per serve run checked against a direct `replay`.
pub const EXACT_CHECKS: usize = 64;

/// Sampled cells per serve run checked bit for bit against a direct
/// `run_sampled_digest`, and measured against the exact CPI.
pub const SAMPLED_CHECKS: usize = 128;

/// Grid cells per sweep run checked against both references.
pub const SPOT_CHECKS: usize = 16;

/// `seed` overrides of novel configurations start here: far from the
/// presets' default latency seed and below the protocol's 1e9 cap.
const NOVEL_SEED_BASE: u64 = 500_000_000;

/// SplitMix64 keyed by `(seed, stream)`, so every draw has its own
/// sequence and adding a draw never shifts another.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = Fnv1a::new();
        h.write_u64(seed);
        h.write_str(stream);
        Rng(h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`0` when `n` is 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// `k` distinct indices from `0..n` in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Draws one machine configuration over the knobs the paper varies:
/// model, issue width, secondary latency, MSHRs, write-cache lines,
/// prefetching and ROB depth. Overrides are listed in key order, the
/// order the wire protocol hands them back in.
pub fn draw_config(rng: &mut Rng) -> ConfigSpec {
    let model = MachineModel::ALL[rng.below(3)];
    let issue = ISSUE_WIDTHS[rng.below(2)];
    let latency = LATENCIES[rng.below(2)];
    let knobs = [rng.below(4), rng.below(4), rng.below(4), rng.below(4)];
    config_spec(model, issue, latency, knobs)
}

const ISSUE_WIDTHS: [IssueWidth; 2] = [IssueWidth::Single, IssueWidth::Dual];
const LATENCIES: [u32; 2] = [17, 35];

/// A configuration with each of the four minor knobs at one of its four
/// levels, `knobs` = [MSHRs, prefetching, ROB depth, write-cache lines].
/// Prefetching is on at three levels of four.
fn config_spec(
    model: MachineModel,
    issue: IssueWidth,
    latency: u32,
    knobs: [usize; 4],
) -> ConfigSpec {
    let [mshr, prefetch, rob, write_cache] = knobs.map(|k| k.min(3));
    ConfigSpec {
        model,
        issue,
        latency: LatencyModel::Fixed(latency),
        overrides: vec![
            ("mshr_entries".to_owned(), (1 + mshr) as f64),
            (
                "prefetch_enabled".to_owned(),
                f64::from(u8::from(prefetch != 0)),
            ),
            ("rob_entries".to_owned(), [2.0, 4.0, 6.0, 8.0][rob]),
            (
                "write_cache_lines".to_owned(),
                [1.0, 2.0, 4.0, 8.0][write_cache],
            ),
        ],
    }
}

/// A configuration no primed cell shares: a fresh knob draw plus a
/// unique latency-RNG `seed` override (the seed is part of the config
/// fingerprint).
fn novel_config(rng: &mut Rng, index: usize) -> ConfigSpec {
    let mut spec = draw_config(rng);
    let seed = NOVEL_SEED_BASE + index as u64;
    spec.overrides.insert(3, ("seed".to_owned(), seed as f64));
    spec
}

/// The request-JSON form of a [`ConfigSpec`].
pub fn spec_json(spec: &ConfigSpec) -> Json {
    let fixed = match spec.latency {
        LatencyModel::Fixed(l) => l,
        other => unreachable!("draws use fixed latencies, not {other:?}"),
    };
    let overrides = spec
        .overrides
        .iter()
        .map(|(k, v)| {
            let value = if k == "prefetch_enabled" {
                Json::Bool(*v != 0.0)
            } else {
                Json::Num(*v)
            };
            (k.clone(), value)
        })
        .collect();
    obj([
        ("model", Json::Str(spec.model.to_string())),
        ("issue", Json::Str(spec.issue.to_string())),
        ("latency", obj([("fixed", Json::Num(f64::from(fixed)))])),
        ("overrides", Json::Obj(overrides)),
    ])
}

/// The paper's Fig. 4 grid: {small, baseline, large} × {single, dual}
/// at a 17-cycle secondary latency.
pub fn paper_grid() -> Vec<MachineConfig> {
    MachineModel::ALL
        .into_iter()
        .flat_map(|m| {
            [IssueWidth::Single, IssueWidth::Dual]
                .map(|issue| m.config(issue, LatencyModel::Fixed(17)))
        })
        .collect()
}

/// sweep-wide's 48 seeded configurations: four for each model × issue
/// width × latency, among which each minor knob takes each of its four
/// levels once. The seed decides how the levels combine. Every seed thus
/// sweeps the same mix of machine sizes: over seeds 1–6 the grid's
/// simulated cycles differ by under 0.1%, where independent draws of
/// all seven knobs differed by up to 8%.
///
/// # Errors
///
/// A draw the protocol rejects (a bug in [`config_spec`]).
pub fn wide_grid(seed: u64) -> Result<Vec<MachineConfig>, ProtoError> {
    let mut rng = Rng::new(seed, "sweep-wide/configs");
    let mut grid = Vec::with_capacity(48);
    for model in MachineModel::ALL {
        for issue in ISSUE_WIDTHS {
            for latency in LATENCIES {
                let levels: [Vec<usize>; 4] = std::array::from_fn(|_| rng.distinct(4, 4));
                for slot in 0..4 {
                    let knobs = levels.each_ref().map(|l| l.get(slot).copied().unwrap_or(0));
                    grid.push(config_spec(model, issue, latency, knobs).resolve()?);
                }
            }
        }
    }
    Ok(grid)
}

/// All 15 kernels: the integer suite, then the floating-point suite.
pub fn all_kernels(scale: Scale) -> Vec<Workload> {
    let mut suite = aurora_bench::harness::integer_suite(scale);
    suite.extend(aurora_bench::harness::fp_suite(scale));
    suite
}

/// Names of [`all_kernels`], in the same order.
pub fn kernel_names() -> Vec<&'static str> {
    IntBenchmark::ALL
        .into_iter()
        .map(IntBenchmark::name)
        .chain(FpBenchmark::ALL.into_iter().map(FpBenchmark::name))
        .collect()
}

/// sweep-wide's kernels: two integer and two floating-point benchmarks.
/// They are fixed rather than drawn by the seed: which four kernels a
/// draw picks moves peak memory by up to 2.7x and throughput by a third,
/// far beyond any bound, while 48 drawn configs average out.
pub fn wide_kernels(scale: Scale) -> Vec<Workload> {
    vec![
        IntBenchmark::Espresso.workload(scale),
        IntBenchmark::Li.workload(scale),
        FpBenchmark::Doduc.workload(scale),
        FpBenchmark::Spice2g6.workload(scale),
    ]
}

/// The grid cells (config-major index `c * kernels + k`) a sweep run
/// spot-checks.
pub fn spot_cells(seed: u64, configs: usize, kernels: usize) -> Vec<usize> {
    let mut cells = Rng::new(seed, "sweep/spot").distinct(configs * kernels, SPOT_CHECKS);
    cells.sort_unstable();
    cells
}

/// One query of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeQuery {
    /// The request document sent to the daemon.
    pub text: String,
    /// Indices into [`ServePlan::configs`], in request order.
    pub configs: Vec<usize>,
    /// Kernel names, in request order.
    pub kernels: Vec<&'static str>,
    pub mode: Mode,
    /// Whether `configs` holds a novel configuration, whose cells all
    /// miss the store.
    pub novel: bool,
}

impl ServeQuery {
    pub fn cells(&self) -> usize {
        self.configs.len() * self.kernels.len()
    }

    /// Cells the daemon must simulate: the novel configuration's row.
    pub fn expected_simulated(&self) -> usize {
        if self.novel {
            self.kernels.len()
        } else {
            0
        }
    }
}

/// One cell whose answer a serve run checks against a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckCell {
    pub query: usize,
    pub config: usize,
    pub kernel: &'static str,
    pub mode: Mode,
}

/// A serve run's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    /// Primed configurations first ([`PRIMED_CONFIGS`]), then one novel
    /// configuration per cold query.
    pub configs: Vec<ConfigSpec>,
    pub queries: Vec<ServeQuery>,
    /// The first [`EXACT_CHECKS`] distinct exact cells in list order.
    pub exact_checks: Vec<CheckCell>,
    /// The first [`SAMPLED_CHECKS`] distinct sampled cells in list order.
    pub sampled_checks: Vec<CheckCell>,
}

impl ServePlan {
    /// Builds the plan: `n` queries, all memo hits (`cold == false`) or
    /// each with one novel configuration (`cold == true`).
    pub fn new(seed: u64, cold: bool, n: usize) -> ServePlan {
        let mut rng = Rng::new(seed, "serve/primed");
        let mut configs: Vec<ConfigSpec> =
            (0..PRIMED_CONFIGS).map(|_| draw_config(&mut rng)).collect();
        let names = kernel_names();
        let mut rng = Rng::new(seed, if cold { "serve-cold" } else { "serve-warm" });
        let mut queries = Vec::with_capacity(n);
        for _ in 0..n {
            // Warm: 1–4 primed configs × 1–4 kernels, any mode. Cold: a
            // novel config beside 0–3 primed ones × 1–3 kernels, half of
            // them in block mode.
            let (primed, kernels, mode) = if cold {
                let mode = [Mode::Block, Mode::Block, Mode::Detailed, Mode::Sampled][rng.below(4)];
                (rng.below(4), 1 + rng.below(3), mode)
            } else {
                let mode = [Mode::Block, Mode::Detailed, Mode::Sampled][rng.below(3)];
                (1 + rng.below(4), 1 + rng.below(4), mode)
            };
            let mut picked = rng.distinct(PRIMED_CONFIGS, primed);
            if cold {
                let at = rng.below(picked.len() + 1);
                picked.insert(at, configs.len());
                configs.push(novel_config(&mut rng, queries.len()));
            }
            let kernels: Vec<&'static str> = rng
                .distinct(names.len(), kernels)
                .into_iter()
                .map(|i| names[i])
                .collect();
            let text = request_json(
                picked.iter().map(|&c| spec_json(&configs[c])).collect(),
                &kernels,
                mode,
            );
            queries.push(ServeQuery {
                text,
                configs: picked,
                kernels,
                mode,
                novel: cold,
            });
        }
        let (exact_checks, sampled_checks) = check_cells(&queries);
        ServePlan {
            configs,
            queries,
            exact_checks,
            sampled_checks,
        }
    }

    /// Queries every client must finish, however short the run, so that
    /// every check cell gets answered.
    pub fn check_prefix(&self) -> usize {
        self.exact_checks
            .iter()
            .chain(&self.sampled_checks)
            .map(|c| c.query + 1)
            .max()
            .unwrap_or(0)
    }

    /// The store-priming requests: every primed configuration × every
    /// kernel, once per mode.
    pub fn prime_requests(&self) -> Vec<String> {
        let specs: Vec<Json> = self.configs[..PRIMED_CONFIGS]
            .iter()
            .map(spec_json)
            .collect();
        [Mode::Block, Mode::Detailed, Mode::Sampled]
            .into_iter()
            .map(|mode| request_json(specs.clone(), &kernel_names(), mode))
            .collect()
    }
}

fn request_json(configs: Vec<Json>, kernels: &[&str], mode: Mode) -> String {
    obj([
        ("configs", Json::Arr(configs)),
        (
            "workloads",
            Json::Arr(kernels.iter().map(|k| Json::Str((*k).to_owned())).collect()),
        ),
        ("scale", Json::Str("test".to_owned())),
        ("mode", Json::Str(mode.name().to_owned())),
    ])
    .to_string()
}

fn check_cells(queries: &[ServeQuery]) -> (Vec<CheckCell>, Vec<CheckCell>) {
    let mut exact: Vec<CheckCell> = Vec::new();
    let mut sampled: Vec<CheckCell> = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        for &config in &q.configs {
            for &kernel in &q.kernels {
                let cell = CheckCell {
                    query: qi,
                    config,
                    kernel,
                    mode: q.mode,
                };
                let (list, cap) = match q.mode {
                    Mode::Sampled => (&mut sampled, SAMPLED_CHECKS),
                    Mode::Block | Mode::Detailed => (&mut exact, EXACT_CHECKS),
                };
                let seen = list
                    .iter()
                    .any(|c| (c.config, c.kernel, c.mode) == (config, kernel, q.mode));
                if list.len() < cap && !seen {
                    list.push(cell);
                }
            }
        }
    }
    (exact, sampled)
}

/// The query indices client `client` sends, in order. Clients take
/// alternate queries, so their sets are disjoint and together cover the
/// list.
pub fn client_share(queries: usize, client: usize) -> impl Iterator<Item = usize> {
    (client..queries).step_by(CLIENTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_serve::engine::cell_config_fp;
    use aurora_serve::proto::QueryRequest;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(ServePlan::new(7, true, 200), ServePlan::new(7, true, 200));
        assert_eq!(ServePlan::new(7, false, 200), ServePlan::new(7, false, 200));
        assert_ne!(ServePlan::new(7, true, 200), ServePlan::new(8, true, 200));
        assert_eq!(wide_grid(3).unwrap(), wide_grid(3).unwrap());
        assert_ne!(wide_grid(3).unwrap(), wide_grid(4).unwrap());
        assert_eq!(spot_cells(9, 6, 15), spot_cells(9, 6, 15));
        assert_eq!(spot_cells(9, 6, 15).len(), SPOT_CHECKS);
    }

    #[test]
    fn every_wide_grid_sweeps_the_same_knob_levels() {
        let levels = |seed| {
            let grid = wide_grid(seed).unwrap();
            let mut knobs: Vec<[usize; 4]> = grid
                .iter()
                .map(|c| {
                    [
                        c.mshr_entries,
                        usize::from(c.prefetch_enabled),
                        c.rob_entries,
                        c.write_cache_lines,
                    ]
                })
                .collect();
            let mut columns: Vec<Vec<usize>> = (0..4)
                .map(|i| knobs.iter().map(|k| k[i]).collect())
                .collect();
            columns.iter_mut().for_each(|c| c.sort_unstable());
            knobs.sort_unstable();
            (grid.len(), columns, knobs)
        };
        let (a, b) = (levels(3), levels(4));
        assert_eq!(a.0, 48);
        assert_eq!(a.1, b.1, "each knob takes the same levels for every seed");
        assert_ne!(a.2, b.2, "the seed changes how the levels combine");
    }

    #[test]
    fn clients_get_disjoint_query_sets_that_cover_the_list() {
        let n = 101;
        let shares: Vec<Vec<usize>> = (0..CLIENTS).map(|c| client_share(n, c).collect()).collect();
        let mut all: Vec<usize> = shares.concat();
        let unique: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a query went to two clients");
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn novel_configs_never_collide_with_primed_ones() {
        for seed in 1..=4 {
            let plan = ServePlan::new(seed, true, 1200);
            let fps = |specs: &[ConfigSpec], mode| -> Vec<u64> {
                specs
                    .iter()
                    .map(|s| cell_config_fp(&s.resolve().unwrap(), mode, &Default::default()))
                    .collect()
            };
            for mode in [Mode::Block, Mode::Sampled] {
                let primed: HashSet<u64> = fps(&plan.configs[..PRIMED_CONFIGS], mode)
                    .into_iter()
                    .collect();
                let novel = fps(&plan.configs[PRIMED_CONFIGS..], mode);
                let distinct: HashSet<u64> = novel.iter().copied().collect();
                assert_eq!(distinct.len(), novel.len(), "two novel configs share a key");
                assert!(novel.iter().all(|fp| !primed.contains(fp)));
            }
            assert!(plan
                .queries
                .iter()
                .all(|q| q.novel && q.expected_simulated() > 0));
        }
    }

    #[test]
    fn queries_round_trip_through_the_protocol_parser() {
        for cold in [false, true] {
            let plan = ServePlan::new(11, cold, 300);
            for q in &plan.queries {
                let req = QueryRequest::from_json_str(&q.text).unwrap();
                let specs: Vec<&ConfigSpec> = q.configs.iter().map(|&c| &plan.configs[c]).collect();
                assert_eq!(req.configs.iter().collect::<Vec<_>>(), specs);
                assert_eq!(req.workloads, q.kernels);
                assert_eq!(req.mode, q.mode);
                assert!(req.machine_configs().is_ok());
            }
            assert_eq!(plan.exact_checks.len(), EXACT_CHECKS);
            assert_eq!(plan.sampled_checks.len(), SAMPLED_CHECKS);
            assert!(plan.check_prefix() < 300);
        }
        for text in ServePlan::new(1, false, 1).prime_requests() {
            let req = QueryRequest::from_json_str(&text).unwrap();
            assert_eq!(req.configs.len() * req.workloads.len(), PRIMED_CONFIGS * 15);
        }
    }
}
