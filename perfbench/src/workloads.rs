//! The workloads: how each generates its inputs from the seed, sets
//! up its indexes, and runs its fixed query mix. One repetition ("rep")
//! is a full set-up followed by the whole mix, so every rep pays the
//! lazy artifact builds a first caller pays.
//!
//! Load shape: one process, one client, closed loop. Each query waits
//! for the previous answer; `service-batch` has one batch in flight.

use crate::trace::{now, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use vom_baselines::AnyEngine;
use vom_core::engine::{BuildCounters, PreparedIndex, Query, SelectionMode, SelectionResult};
use vom_core::phases::{self, PhaseTimes, SolverCounters};
use vom_core::rs::RsConfig;
use vom_core::rw::RwConfig;
use vom_core::{Engine, MethodId, Problem, SeedSelector};
use vom_datasets::{
    scale_stress, twitter_election_like, twitter_mask_like, yelp_like, Dataset, ReplicaParams,
    ScaleParams,
};
use vom_diffusion::Instance;
use vom_graph::{Candidate, Node};
use vom_service::{ServiceRequest, VomService};
use vom_voting::ScoringFunction;

/// The seed the recorded digests belong to. It is also the seed of the
/// repository's `repro --bench-json` / `--scale-stress` runs, so at this
/// seed every workload sees exactly the inputs those harnesses see.
pub const DEFAULT_SEED: u64 = 2023;
/// A seed no workload or digest was tuned on, for checking that a
/// claimed gain holds on inputs the change was not written against.
pub const HELD_OUT_SEED: u64 = 7;

pub const HORIZON: usize = 20;
const K_SWEEP: [usize; 3] = [5, 10, 20];
const REPLICA_SCALE: f64 = 0.003;
const SERVICE_GRAPH: &str = "yelp";
const SERVICE_REPLICATION: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplicaPlurality,
    ReplicaCumulative,
    Rmat100k,
    ServiceBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReplicaPlurality,
        Workload::ReplicaCumulative,
        Workload::Rmat100k,
        Workload::ServiceBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplicaPlurality => "replica-plurality",
            Workload::ReplicaCumulative => "replica-cumulative",
            Workload::Rmat100k => "rmat-100k",
            Workload::ServiceBatch => "service-batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Selection digest of one rep at [`DEFAULT_SEED`] (see
    /// [`selection_digest`]). The replica and service digests equal the
    /// `fig6-quick`, `sweep-k` and `query-throughput` digests pinned in
    /// `BENCH_parallel.json`: the same inputs select the same seeds.
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::ReplicaPlurality => "13af84e738d01d92",
            Workload::ReplicaCumulative => "8c41fa6c26e3b30e",
            Workload::Rmat100k => "854ece72353e7974",
            Workload::ServiceBatch => "528e49621bf186f3",
        }
    }

    /// Wall seconds of one rep on the reference host (2 cores). A run
    /// makes `--seconds` worth of reps at this rate, so the work a run
    /// measures is fixed: a faster program does not run more reps, and
    /// the mix of first and later reps stays the same across commits.
    fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::ReplicaPlurality => 20.0,
            Workload::ReplicaCumulative => 4.0,
            Workload::Rmat100k => 0.6,
            Workload::ServiceBatch => 0.6,
        }
    }

    /// Reps a run of `seconds` makes: at least one.
    pub fn reps(self, seconds: f64) -> usize {
        ((seconds / self.nominal_rep_s()).round() as usize).max(1)
    }

    /// Nodes of the R-MAT workload: the smaller `repro --scale-stress`
    /// point.
    fn rmat_nodes(self) -> Option<usize> {
        match self {
            Workload::Rmat100k => Some(100_000),
            _ => None,
        }
    }

    /// The k = 20 selection digest `repro --scale-stress` pins for the
    /// R-MAT workload at [`DEFAULT_SEED`] (`BENCH_scale.json`).
    pub fn scale_stress_k20_digest(self) -> Option<&'static str> {
        match self {
            Workload::Rmat100k => Some("fe3fb8590b9dff9e"),
            _ => None,
        }
    }

    pub fn rule(self) -> ScoringFunction {
        match self {
            Workload::ReplicaPlurality | Workload::ServiceBatch => ScoringFunction::Plurality,
            Workload::ReplicaCumulative | Workload::Rmat100k => ScoringFunction::Cumulative,
        }
    }

    fn mode(self) -> SelectionMode {
        match self {
            Workload::ReplicaPlurality => SelectionMode::Auto,
            _ => SelectionMode::Plain,
        }
    }

    /// The engines of the direct workloads, in registry order. Exact DM
    /// joins only where its greedy is affordable, with the thresholds of
    /// the repository's sweep experiments.
    fn methods(self, n: usize) -> Vec<MethodId> {
        let dm_ok = match self {
            Workload::ReplicaCumulative => n <= 5_000,
            Workload::ReplicaPlurality => n <= 1_500,
            Workload::Rmat100k | Workload::ServiceBatch => false,
        };
        let mut out = if dm_ok { vec![MethodId::Dm] } else { vec![] };
        if self.rmat_nodes().is_none() {
            out.push(MethodId::Rw);
        }
        out.push(MethodId::Rs);
        out
    }

    fn generate(self, seed: u64) -> Vec<Input> {
        let params = ReplicaParams {
            scale: REPLICA_SCALE,
            seed,
            mu: 10.0,
        };
        let datasets = match self {
            Workload::ReplicaPlurality | Workload::ReplicaCumulative => vec![
                yelp_like(&params),
                twitter_election_like(&params),
                twitter_mask_like(&params),
            ],
            Workload::Rmat100k => vec![scale_stress(&ScaleParams {
                nodes: self.rmat_nodes().expect("an R-MAT workload"),
                seed,
            })],
            Workload::ServiceBatch => vec![yelp_like(&params)],
        };
        datasets.into_iter().map(Input::from).collect()
    }

    /// RS settings: θ = n on the R-MAT graph, derived elsewhere.
    pub fn rs_config(self, seed: u64, n: usize) -> RsConfig {
        RsConfig {
            seed,
            theta_override: self.rmat_nodes().map(|_| n),
            ..RsConfig::default()
        }
    }

    fn engine(self, method: MethodId, seed: u64, n: usize) -> Engine {
        match method {
            MethodId::Dm => Engine::Dm,
            // The repository harness's RW setting (§VIII-B): capped
            // per-node walk counts and a raised γ floor.
            MethodId::Rw => Engine::Rw(RwConfig {
                seed,
                max_lambda: 150,
                gamma_floor: 0.1,
                ..RwConfig::default()
            }),
            _ => Engine::Rs(self.rs_config(seed, n)),
        }
    }
}

/// The budgets swept on an `n`-node instance.
pub fn budgets(n: usize) -> Vec<usize> {
    K_SWEEP
        .iter()
        .map(|&k| k.min(n / 2))
        .filter(|&k| k > 0)
        .collect()
}

/// One generated instance with its default target.
pub struct Input {
    pub name: &'static str,
    pub instance: Arc<Instance>,
    pub target: Candidate,
}

impl From<Dataset> for Input {
    fn from(ds: Dataset) -> Input {
        Input {
            name: ds.name,
            instance: Arc::new(ds.instance),
            target: ds.default_target,
        }
    }
}

/// One query of the mix and what came back.
pub struct Answer {
    /// Digest label, in the format of the repository harness.
    pub label: String,
    /// Index into [`Rep::inputs`].
    pub input: usize,
    pub k: usize,
    /// The selection, or why the query failed (error, panic, degraded).
    pub outcome: Result<SelectionResult, String>,
    /// Wall clock of the call that answered it (zero for batch slots).
    pub wall: Duration,
}

/// Service-layer facts of one `service-batch` rep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceRep {
    pub warm_loaded: usize,
    pub warm_skipped: usize,
    pub index_builds_in_batch: usize,
    /// Σ of the slots' selection times.
    pub slot_elapsed: Duration,
}

/// One set-up plus one pass of the query mix.
pub struct Rep {
    pub inputs: Vec<Input>,
    pub setup: Duration,
    pub query: Duration,
    pub answers: Vec<Answer>,
    /// Σ capacity-exact heap bytes of the rep's indexes, read after the
    /// queries so lazily built artifacts count.
    pub heap_bytes: usize,
    /// Estimator artifacts built during set-up and queries.
    pub builds: BuildCounters,
    pub setup_solver: SolverCounters,
    pub query_solver: SolverCounters,
    /// Query-phase warm solver work per input: (n, counters).
    pub warm_by_input: Vec<(usize, SolverCounters)>,
    /// `vom_core::phases` delta over the query phase.
    pub phases: PhaseTimes,
    pub service: Option<ServiceRep>,
}

fn build_delta(before: BuildCounters) -> BuildCounters {
    BuildCounters::snapshot().since(before)
}

impl Rep {
    /// A rep stopped after its set-up.
    fn setup_only(inputs: Vec<Input>, setup: Duration, builds0: BuildCounters) -> Rep {
        Rep {
            inputs,
            setup,
            query: Duration::ZERO,
            answers: Vec::new(),
            heap_bytes: 0,
            builds: build_delta(builds0),
            setup_solver: SolverCounters::default(),
            query_solver: SolverCounters::default(),
            warm_by_input: Vec::new(),
            phases: PhaseTimes::default(),
            service: None,
        }
    }
}

/// One rep of a workload that calls `vom-core` directly; without
/// `queries`, only its set-up.
pub fn run_direct(w: Workload, seed: u64, queries: bool, tr: &Tracer) -> Result<Rep, String> {
    let rule = w.rule();
    let builds0 = BuildCounters::snapshot();
    let solver0 = SolverCounters::snapshot();
    let setup_start = now();
    let inputs = tr.span("datasets.gen", None, || w.generate(seed));
    let mut indexes: Vec<(usize, MethodId, Arc<PreparedIndex>)> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let n = input.instance.num_nodes();
        let k_max = budgets(n).into_iter().max().ok_or("instance too small")?;
        let spec = Problem::new(&input.instance, input.target, k_max, HORIZON, rule.clone())
            .map_err(|e| format!("{}: {e}", input.name))?;
        for m in w.methods(n) {
            let span = match m {
                MethodId::Dm => "core.prepare_dm",
                MethodId::Rw => "core.prepare_rw",
                _ => "core.prepare_rs",
            };
            let index = tr
                .span(span, None, || w.engine(m, seed, n).prepare_index(&spec))
                .map_err(|e| format!("{}/{}: prepare failed: {e}", input.name, m.name()))?;
            indexes.push((i, m, Arc::new(index)));
        }
    }
    let setup = setup_start.elapsed();
    if !queries {
        return Ok(Rep::setup_only(inputs, setup, builds0));
    }

    let solver1 = SolverCounters::snapshot();
    let phases0 = phases::snapshot();
    let mut answers = Vec::new();
    let mut warm_by_input: Vec<(usize, SolverCounters)> = inputs
        .iter()
        .map(|inp| (inp.instance.num_nodes(), SolverCounters::default()))
        .collect();
    let query_start = now();
    for (i, m, index) in &indexes {
        let input = &inputs[*i];
        let mut session = PreparedIndex::session(index);
        let before = SolverCounters::snapshot();
        for k in budgets(input.instance.num_nodes()) {
            let query = Query {
                mode: w.mode(),
                ..Query::new(k, rule.clone(), input.target)
            };
            let qid = answers.len();
            let start = now();
            let outcome = tr.span("core.select", Some(qid), || {
                catch_unwind(AssertUnwindSafe(|| session.select(&query)))
            });
            let wall = start.elapsed();
            answers.push(Answer {
                label: format!("{}/{}/k{k}", input.name, m.name()),
                input: *i,
                k,
                outcome: match outcome {
                    Ok(Ok(res)) => Ok(res),
                    Ok(Err(e)) => Err(e.to_string()),
                    Err(_) => Err("query panicked".to_string()),
                },
                wall,
            });
        }
        warm_by_input[*i]
            .1
            .add(SolverCounters::snapshot().since(before));
    }
    let query = query_start.elapsed();
    let phases = phases::snapshot().since(phases0);
    let query_solver = SolverCounters::snapshot().since(solver1);
    let heap_bytes = indexes
        .iter()
        .map(|(_, _, ix)| ix.build_stats().heap_bytes)
        .sum();
    Ok(Rep {
        inputs,
        setup,
        query,
        answers,
        heap_bytes,
        builds: build_delta(builds0),
        setup_solver: solver1.since(solver0),
        query_solver,
        warm_by_input,
        phases,
        service: None,
    })
}

/// What the untimed first step of a `service-batch` run leaves behind:
/// the instance and a directory of index snapshots, saved by a service
/// that built the indexes and answered the batch once.
pub struct ServiceFixture {
    pub input: Input,
    pub requests: Vec<ServiceRequest>,
    pub dir: SnapshotDir,
    pub snapshot_bytes: u64,
}

/// A scratch directory removed when dropped.
pub struct SnapshotDir(pub PathBuf);

impl Drop for SnapshotDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn service(seed: u64) -> VomService {
    VomService::with_engine_factory(Box::new(move |m| match m {
        MethodId::Rs => AnyEngine::Core(Engine::Rs(Workload::ServiceBatch.rs_config(seed, 0))),
        other => AnyEngine::with_defaults(other),
    }))
}

/// The batch: every budget under plurality, auto and plain modes,
/// replicated [`SERVICE_REPLICATION`] times, all on one RS index family.
fn service_requests(input: &Input) -> Vec<ServiceRequest> {
    let mut requests = Vec::new();
    for _ in 0..SERVICE_REPLICATION {
        for k in budgets(input.instance.num_nodes()) {
            for mode in [SelectionMode::Auto, SelectionMode::Plain] {
                let query = Query {
                    mode,
                    ..Query::new(k, ScoringFunction::Plurality, input.target)
                };
                requests.push(ServiceRequest::new(
                    SERVICE_GRAPH,
                    MethodId::Rs,
                    HORIZON,
                    query,
                ));
            }
        }
    }
    requests
}

pub fn service_fixture(seed: u64, scratch: &Path, tr: &Tracer) -> Result<ServiceFixture, String> {
    let input = tr
        .span("datasets.gen", None, || {
            Workload::ServiceBatch.generate(seed)
        })
        .pop()
        .expect("one dataset");
    let requests = service_requests(&input);
    let dir = SnapshotDir(scratch.join(format!("snapshots-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let origin = service(seed);
    origin
        .register(SERVICE_GRAPH, Arc::clone(&input.instance))
        .map_err(|e| e.to_string())?;
    for res in tr.span("service.run_batch", None, || origin.run_batch(&requests)) {
        res.map_err(|e| format!("fixture batch: {e}"))?;
    }
    // One snapshot per distinct index the batch used: the index key
    // varies with the budget only.
    let mut saved: Vec<PathBuf> = Vec::new();
    for k in budgets(input.instance.num_nodes()) {
        let req = requests
            .iter()
            .find(|r| r.query.k == k)
            .expect("every budget is requested");
        let path = tr
            .span("persist.save", None, || origin.save_index(req, &dir.0))
            .map_err(|e| format!("save_index: {e}"))?;
        saved.push(path);
    }
    let mut snapshot_bytes = 0;
    for path in &saved {
        snapshot_bytes += std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
    }
    Ok(ServiceFixture {
        input,
        requests,
        dir,
        snapshot_bytes,
    })
}

/// One rep of `service-batch`: a fresh service warm-restarts from the
/// fixture's snapshots (set-up), then, with `queries`, answers the batch.
pub fn run_service(
    fx: &ServiceFixture,
    seed: u64,
    queries: bool,
    tr: &Tracer,
) -> Result<Rep, String> {
    let builds0 = BuildCounters::snapshot();
    let solver0 = SolverCounters::snapshot();
    let setup_start = now();
    let svc = service(seed);
    tr.span("service.register", None, || {
        svc.register(SERVICE_GRAPH, Arc::clone(&fx.input.instance))
    })
    .map_err(|e| e.to_string())?;
    let summary = tr
        .span("persist.warm_from_dir", None, || {
            svc.warm_from_dir(&fx.dir.0)
        })
        .map_err(|e| format!("warm_from_dir: {e}"))?;
    let setup = setup_start.elapsed();
    let input = || Input {
        name: fx.input.name,
        instance: Arc::clone(&fx.input.instance),
        target: fx.input.target,
    };
    if !queries {
        return Ok(Rep::setup_only(vec![input()], setup, builds0));
    }

    let solver1 = SolverCounters::snapshot();
    let builds1 = BuildCounters::snapshot();
    let phases0 = phases::snapshot();
    let query_start = now();
    let results = tr.span("service.run_batch", None, || svc.run_batch(&fx.requests));
    let query = query_start.elapsed();
    let phases = phases::snapshot().since(phases0);
    let query_solver = SolverCounters::snapshot().since(solver1);
    let in_batch = build_delta(builds1);

    let mut slot_elapsed = Duration::ZERO;
    let answers: Vec<Answer> = fx
        .requests
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (req, res))| {
            if let Ok(r) = &res {
                slot_elapsed += r.elapsed;
            }
            Answer {
                label: format!(
                    "{}/k{}/{:?}/{i}",
                    fx.input.name, req.query.k, req.query.mode
                ),
                input: 0,
                k: req.query.k,
                outcome: res.map_err(|e| e.to_string()),
                wall: Duration::ZERO,
            }
        })
        .collect();
    let heap_bytes = svc.index_stats().iter().map(|s| s.heap_bytes).sum();
    let n = fx.input.instance.num_nodes();
    Ok(Rep {
        inputs: vec![input()],
        setup,
        query,
        answers,
        heap_bytes,
        builds: build_delta(builds0),
        setup_solver: solver1.since(solver0),
        query_solver,
        warm_by_input: vec![(n, query_solver)],
        phases,
        service: Some(ServiceRep {
            warm_loaded: summary.loaded,
            warm_skipped: summary.skipped.len(),
            index_builds_in_batch: in_batch.rw_arenas + in_batch.rs_sketches,
            slot_elapsed,
        }),
    })
}

/// FNV-1a over the answers' labels and seeds — the fingerprint format
/// of the repository harness, so digests compare across the two.
pub fn selection_digest<'a>(selections: impl IntoIterator<Item = (&'a str, &'a [Node])>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (label, seeds) in selections {
        label.bytes().for_each(&mut eat);
        eat(0xff);
        for &s in seeds {
            s.to_le_bytes().into_iter().for_each(&mut eat);
        }
        eat(0xfe);
    }
    format!("{hash:016x}")
}

impl Rep {
    /// Digest of every answered query, in mix order.
    pub fn digest(&self) -> String {
        selection_digest(self.answers.iter().filter_map(|a| {
            a.outcome
                .as_ref()
                .ok()
                .map(|r| (a.label.as_str(), r.seeds.as_slice()))
        }))
    }

    /// Σ exact objective of the returned seed sets.
    pub fn score_total(&self) -> f64 {
        self.answers
            .iter()
            .filter_map(|a| a.outcome.as_ref().ok())
            .map(|r| r.exact_score)
            .sum()
    }

    /// (sandwich answers, answers the sandwich changed from S_F).
    pub fn sandwich_counts(&self) -> (usize, usize) {
        let mut queries = 0;
        let mut upgraded = 0;
        for r in self.answers.iter().filter_map(|a| a.outcome.as_ref().ok()) {
            if let Some(info) = &r.sandwich {
                queries += 1;
                if r.seeds != info.s_f {
                    upgraded += 1;
                }
            }
        }
        (queries, upgraded)
    }
}
