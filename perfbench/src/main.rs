//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads: `replica-plurality`,
//! `replica-cumulative`, `rmat-100k`, `service-batch` (see
//! `perfbench/README.md` for what each stresses). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. A run that fails
//! a correctness check still prints its result, then exits 1.

#![forbid(unsafe_code)]

mod gate;
mod probes;
mod trace;
mod workloads;

use gate::Fingerprint;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use vom_core::engine::BuildCounters;
use vom_core::phases::{PhaseTimes, SolverCounters};
use workloads::{Rep, ServiceFixture, ServiceRep, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Set-ups a run times at least, whatever `--seconds` says: `setup_s`
/// is their median. Reps that ran the queries count; the rest are
/// set-up-only passes.
const MIN_SETUPS: usize = 5;

/// Where runs leave their spans and scratch snapshots (ignored by git).
const OUT_DIR: &str = ".bench_build/perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <replica-plurality|replica-cumulative|rmat-100k|\
                     service-batch> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    // audit:allow(d-env-read, "command-line flags choose the workload and seed; selections depend on them by design")
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

// ---------------------------------------------------------------------
// Host block
// ---------------------------------------------------------------------

/// Size in bytes of the unified or data cache at `level` of CPU 0.
fn cache_bytes(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &Path, file: &str| std::fs::read_to_string(dir.join(file)).ok();
    (0..16)
        .map(|i| base.join(format!("index{i}")))
        .filter(|dir| {
            read(dir, "level").is_some_and(|l| l.trim() == level.to_string())
                && read(dir, "type").is_some_and(|t| t.trim() != "Instruction")
        })
        .find_map(|dir| {
            let size = read(&dir, "size")?;
            let size = size.trim();
            let (digits, scale) = match size.strip_suffix('K') {
                Some(d) => (d, 1024),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1024 * 1024),
                    None => (size, 1),
                },
            };
            digits.parse::<u64>().ok().map(|v| v * scale)
        })
        .unwrap_or(0)
}

/// The checkout's git revision, when the working directory is a git
/// checkout root.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn host_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"pool_width\": {}, \"profile\": \"{}\", \"rustc\": \"{}\", \
         \"git_rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"l2_bytes\": {}, \"l3_bytes\": {}}}",
        rayon::current_num_threads(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        git_rev(),
        args.workload.name(),
        args.seed,
        cache_bytes(2),
        cache_bytes(3)
    )
}

/// Resets the peak-RSS mark (`VmHWM`) to the current RSS, so the next
/// read covers only what ran since.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak-RSS mark: {e}"))
}

/// Peak resident set size of this process since the last reset.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

// ---------------------------------------------------------------------
// Reps
// ---------------------------------------------------------------------

/// The counts a rep must reproduce exactly — across reps, with tracing
/// on, and at pool width 1.
#[derive(Debug, Clone, PartialEq)]
struct Determinism {
    digest: String,
    score_bits: u64,
    heap_bytes: usize,
    builds: BuildCounters,
    setup_solver: SolverCounters,
    query_solver: SolverCounters,
    sandwich: (usize, usize),
    warm_loaded: Option<usize>,
    index_builds_in_batch: Option<usize>,
}

/// What a rep leaves behind once its inputs are dropped.
struct Sample {
    setup_s: f64,
    query_s: f64,
    answered: usize,
    det: Determinism,
    phases: PhaseTimes,
    /// Σ `SelectionResult::elapsed`.
    selection_s: f64,
    /// Σ (select wall − elapsed), direct workloads only.
    post_selection_s: f64,
    warm_by_input: Vec<(usize, SolverCounters)>,
    service: Option<ServiceRep>,
    /// Peak RSS read when the rep ended, before its gate ran.
    peak_rss: u64,
}

impl Sample {
    fn of(rep: &Rep, peak_rss: u64) -> Sample {
        let ok = || {
            rep.answers
                .iter()
                .filter_map(|a| a.outcome.as_ref().ok().map(|r| (a, r)))
        };
        Sample {
            setup_s: rep.setup.as_secs_f64(),
            query_s: rep.query.as_secs_f64(),
            answered: ok().count(),
            det: Determinism {
                digest: rep.digest(),
                score_bits: rep.score_total().to_bits(),
                heap_bytes: rep.heap_bytes,
                builds: rep.builds,
                setup_solver: rep.setup_solver,
                query_solver: rep.query_solver,
                sandwich: rep.sandwich_counts(),
                warm_loaded: rep.service.map(|s| s.warm_loaded),
                index_builds_in_batch: rep.service.map(|s| s.index_builds_in_batch),
            },
            phases: rep.phases,
            selection_s: ok().map(|(_, r)| r.elapsed.as_secs_f64()).sum(),
            post_selection_s: ok()
                .map(|(a, r)| a.wall.saturating_sub(r.elapsed).as_secs_f64())
                .sum(),
            warm_by_input: rep.warm_by_input.clone(),
            service: rep.service,
            peak_rss,
        }
    }
}

/// Run-wide bookkeeping: operations attempted and failed, and why.
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, context: &str, msgs: Vec<String>) {
        self.failures
            .extend(msgs.into_iter().map(|m| format!("{context}: {m}")));
    }
}

struct Runner {
    args: Args,
    fixture: Option<ServiceFixture>,
    /// The first rep's answers, which every later rep must repeat.
    reference: Option<Vec<Fingerprint>>,
    reference_det: Option<Determinism>,
    ledger: Ledger,
}

impl Runner {
    fn rep(&self, queries: bool, tr: &Tracer) -> Result<Rep, String> {
        let (w, seed) = (self.args.workload, self.args.seed);
        match &self.fixture {
            Some(fx) => workloads::run_service(fx, seed, queries, tr),
            None => workloads::run_direct(w, seed, queries, tr),
        }
    }

    /// Runs one rep and gates it. The first rep gets the full check
    /// (and, at the default seed, the digest pins); later reps must
    /// repeat it exactly.
    fn checked_rep(&mut self, label: &str, tr: &Tracer) -> Result<(Rep, Sample), String> {
        let rep = tr.span("rep", None, || self.rep(true, tr))?;
        let sample = Sample::of(&rep, peak_rss_bytes());
        self.ledger.attempted += rep.answers.len() as u64;
        let w = self.args.workload;
        match &self.reference {
            None => {
                let failures = tr.span("gate", None, || gate::check_answers(&rep, w, tr));
                self.ledger.fail(label, failures);
                if self.args.seed == DEFAULT_SEED {
                    self.check_pins(&rep, &sample, label);
                }
                self.reference = Some(gate::fingerprints(&rep));
                self.reference_det = Some(sample.det.clone());
            }
            Some(reference) => {
                let failures = gate::check_repeat(&rep, reference);
                self.ledger.fail(label, failures);
                let first = self.reference_det.as_ref().expect("set with the reference");
                if *first != sample.det {
                    self.ledger.fail(
                        label,
                        vec![format!(
                            "deterministic counts differ from the first rep: {:?} vs {first:?}",
                            sample.det
                        )],
                    );
                }
            }
        }
        Ok((rep, sample))
    }

    fn check_pins(&mut self, rep: &Rep, sample: &Sample, label: &str) {
        let w = self.args.workload;
        let mut bad = Vec::new();
        if sample.det.digest != w.pinned_digest() {
            bad.push(format!(
                "selection digest {} != recorded {}",
                sample.det.digest,
                w.pinned_digest()
            ));
        }
        self.ledger.attempted += 1;
        if let Some(pin) = w.scale_stress_k20_digest() {
            let k20 = workloads::selection_digest(rep.answers.iter().filter_map(|a| {
                let r = a.outcome.as_ref().ok()?;
                (a.k == 20).then_some((a.label.as_str(), r.seeds.as_slice()))
            }));
            if k20 != pin {
                bad.push(format!(
                    "k = 20 digest {k20} != repro --scale-stress pin {pin}"
                ));
            }
            self.ledger.attempted += 1;
        }
        self.ledger.fail(label, bad);
    }

    /// The workload's rep count for `--seconds` (see
    /// [`Workload::nominal_rep_s`]), then set-up-only passes until
    /// [`MIN_SETUPS`] set-ups were timed. Returns the reps' samples and
    /// all set-up times. The peak-RSS mark is reset first, so the first
    /// sample's `peak_rss` is of one set-up and one mix alone, not of
    /// the `service-batch` fixture.
    fn measure(&mut self) -> Result<(Vec<Sample>, Vec<f64>), String> {
        let off = Tracer::new(false);
        let reps = self.args.workload.reps(self.args.seconds);
        let mut samples: Vec<Sample> = Vec::new();
        reset_peak_rss()?;
        while samples.len() < reps {
            let label = format!("rep {}", samples.len() + 1);
            let (rep, sample) = self.checked_rep(&label, &off)?;
            drop(rep);
            eprintln!(
                "[{label}] setup {:.4} s, queries {:.4} s, digest {}",
                sample.setup_s, sample.query_s, sample.det.digest
            );
            samples.push(sample);
        }
        let mut setups: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
        while setups.len() < MIN_SETUPS {
            let rep = self.rep(false, &off)?;
            eprintln!(
                "[set-up {}] {:.4} s",
                setups.len() + 1,
                rep.setup.as_secs_f64()
            );
            setups.push(rep.setup.as_secs_f64());
        }
        Ok((samples, setups))
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(samples: &[Sample], setups: Vec<f64>) -> Metrics {
    let first = &samples[0];
    vec![
        ("setup_s", median(setups), "s"),
        (
            "query_s",
            median(samples.iter().map(|s| s.query_s).collect()),
            "s",
        ),
        (
            "qps",
            median(
                samples
                    .iter()
                    .map(|s| ratio(s.answered as f64, s.query_s))
                    .collect(),
            ),
            "queries/s",
        ),
        ("index_heap_bytes", first.det.heap_bytes as f64, "bytes"),
        ("peak_rss_bytes", first.peak_rss as f64, "bytes"),
        (
            "score_total",
            f64::from_bits(first.det.score_bits),
            "objective",
        ),
    ]
}

/// The traced run: the untraced reps, then one traced rep with its gate
/// and layer probes, then one rep at pool width 1; self-checks on all.
fn traced(runner: &mut Runner, width: usize, tr: &Tracer) -> Result<Metrics, String> {
    let (untraced, setups) = runner.measure()?;
    let setup_ref = median(setups);
    let query_ref = median(untraced.iter().map(|s| s.query_s).collect());

    let (rep, t) = runner.checked_rep("traced rep", tr)?;
    let w = runner.args.workload;
    // The traced rep is gated against the first rep; recompute its exact
    // scores here too, as the exact-evaluation probe.
    let gate_failures = tr.span("gate", None, || gate::check_answers(&rep, w, tr));
    runner.ledger.fail("traced rep", gate_failures);
    let cold = tr.span("probes", None, || {
        probes::run(&rep, w, runner.args.seed, tr)
    })?;
    drop(rep);

    rayon::set_thread_override(Some(1));
    let serial = runner.checked_rep("width-1 rep", &Tracer::new(false));
    rayon::set_thread_override(Some(width));
    let (_, w1) = serial?;

    let spans = tr.spans();
    let violations = trace::check(&spans);
    let checks = violations.len();
    runner.ledger.attempted += 1;
    if !violations.is_empty() {
        runner
            .ledger
            .fail("span self-check", vec![violations.join("; ")]);
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.json", w.name(), runner.args.seed));
    std::fs::write(&path, trace::to_json(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "[trace] {} spans written to {} ({checks} self-check violations)",
        spans.len(),
        path.display()
    );

    let wall = |name| trace::wall_seconds(&spans, name);
    // Self time within the traced rep only: the gate, the probes and the
    // `service-batch` fixture lie outside the measured workload.
    let rep_span = spans
        .iter()
        .position(|s| s.name == "rep")
        .expect("the traced rep is the one traced `rep` span");
    let layers = trace::self_seconds_by_layer(&spans, rep_span);
    let own = |layer| layers.get(layer).copied().unwrap_or(0.0);
    let svc = t.service.unwrap_or_default();
    let (sandwiches, upgraded) = t.det.sandwich;
    let qs = t.det.query_solver;
    let warm_capacity: f64 = t
        .warm_by_input
        .iter()
        .map(|(n, c)| (*n as f64) * c.warm_solves as f64)
        .sum();
    let warm_nodes: f64 = t
        .warm_by_input
        .iter()
        .map(|(_, c)| c.warm_frontier_nodes as f64)
        .sum();
    let snapshot_bytes = runner.fixture.as_ref().map_or(0, |fx| fx.snapshot_bytes);

    Ok(vec![
        ("datasets.gen_s", wall("datasets.gen"), "s"),
        ("core.prepare_dm_s", wall("core.prepare_dm"), "s"),
        ("core.prepare_rw_s", wall("core.prepare_rw"), "s"),
        ("core.prepare_rs_s", wall("core.prepare_rs"), "s"),
        ("walks.arenas_built", t.det.builds.rw_arenas as f64, "count"),
        (
            "sketch.sets_built",
            t.det.builds.rs_sketches as f64,
            "count",
        ),
        ("sketch.generate_s", wall("sketch.generate"), "s"),
        ("core.selection_s", t.selection_s, "s"),
        ("core.post_selection_s", t.post_selection_s, "s"),
        ("core.exact_eval_s", wall("core.exact_score"), "s"),
        (
            "core.competitor_matrix_s",
            wall("core.non_target_opinions"),
            "s",
        ),
        ("core.sandwich_queries", sandwiches as f64, "count"),
        (
            "core.sandwich_upgrade_ratio",
            ratio(upgraded as f64, sandwiches as f64),
            "ratio",
        ),
        (
            "voting.rank_index_build_s",
            wall("voting.rank_index_build"),
            "s",
        ),
        ("diffusion.cold_solves", qs.cold_solves as f64, "count"),
        ("diffusion.cold_steps", qs.cold_steps as f64, "count"),
        ("diffusion.warm_solves", qs.warm_solves as f64, "count"),
        (
            "diffusion.warm_frontier_nodes",
            qs.warm_frontier_nodes as f64,
            "count",
        ),
        ("diffusion.cold_solve_s", wall("diffusion.cold_solve"), "s"),
        (
            "diffusion.cold_ns_per_edge_step",
            ratio(wall("diffusion.cold_solve") * 1e9, cold.edge_steps as f64),
            "ns",
        ),
        (
            "diffusion.computed_bytes_per_edge_step",
            ratio(cold.bytes as f64, cold.edge_steps as f64),
            "bytes",
        ),
        (
            "diffusion.warm_frontier_fraction",
            ratio(warm_nodes, warm_capacity),
            "ratio",
        ),
        ("persist.save_s", wall("persist.save"), "s"),
        ("persist.load_s", wall("persist.warm_from_dir"), "s"),
        ("persist.snapshot_bytes", snapshot_bytes as f64, "bytes"),
        ("service.warm_loaded", svc.warm_loaded as f64, "count"),
        ("service.warm_skipped", svc.warm_skipped as f64, "count"),
        (
            "service.index_builds_in_batch",
            svc.index_builds_in_batch as f64,
            "count",
        ),
        (
            "service.parallel_efficiency",
            ratio(svc.slot_elapsed.as_secs_f64(), width as f64 * t.query_s),
            "ratio",
        ),
        ("pool.width", width as f64, "count"),
        (
            "pool.speedup_vs_width1",
            ratio(w1.query_s, query_ref),
            "ratio",
        ),
        ("phases.scoring_s", t.phases.scoring.as_secs_f64(), "s"),
        (
            "phases.truncation_s",
            t.phases.truncation.as_secs_f64(),
            "s",
        ),
        (
            "phases.diffusion_cold_s",
            t.phases.diffusion.as_secs_f64(),
            "s",
        ),
        (
            "phases.diffusion_warm_s",
            t.phases.diffusion_warm.as_secs_f64(),
            "s",
        ),
        ("self.bench_s", own("bench"), "s"),
        ("self.core_s", own("core"), "s"),
        ("self.service_s", own("service"), "s"),
        ("trace.spans", spans.len() as f64, "count"),
        ("trace.overhead_setup_s", t.setup_s - setup_ref, "s"),
        ("trace.overhead_query_s", t.query_s - query_ref, "s"),
    ])
}

fn run(args: Args) -> Result<(Metrics, Ledger), String> {
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_thread_override(Some(width));
    println!("host {}", host_json(&args));
    let tr = Tracer::new(args.trace);
    let fixture = match args.workload {
        Workload::ServiceBatch => {
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            let fx = tr.span("fixture", None, || {
                workloads::service_fixture(args.seed, Path::new(OUT_DIR), &tr)
            })?;
            Some(fx)
        }
        _ => None,
    };
    let trace = args.trace;
    let mut runner = Runner {
        args,
        fixture,
        reference: None,
        reference_det: None,
        ledger: Ledger {
            attempted: 0,
            failures: Vec::new(),
        },
    };
    let metrics = if trace {
        traced(&mut runner, width, &tr)?
    } else {
        let (samples, setups) = runner.measure()?;
        end_to_end(&samples, setups)
    };
    Ok((metrics, runner.ledger))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (metrics, ledger) = match run(args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &ledger.failures {
        eprintln!("FAILED {f}");
    }
    let failed = ledger.failures.len() as u64;
    let attempted = ledger.attempted.max(1);
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "metric error_rate {} ratio ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
