//! Layer probes of the traced run: direct calls into one layer each, on
//! the traced rep's inputs, outside every timed section.

use crate::trace::Tracer;
use crate::workloads::{budgets, Rep, Workload, HORIZON};
use std::mem::size_of;
use std::sync::Arc;
use vom_core::rs::choose_theta;
use vom_core::Problem;
use vom_diffusion::{SolveOptions, Solver};
use vom_graph::Node;
use vom_sketch::SketchSet;
use vom_voting::RankIndex;

/// Work the cold-solve probes did, for per-edge-step ratios.
#[derive(Debug, Default)]
pub struct ColdSolveWork {
    /// Σ steps · edges over the probe solves.
    pub edge_steps: u64,
    /// Σ steps · computed bytes per step (see [`step_bytes`]).
    pub bytes: u64,
}

/// Bytes one exact FJ step moves, computed from the CSR element sizes
/// (not measured): per edge the source id, the weight and the gathered
/// opinion; per node the row offset, the two folded constants, the
/// current value read for fixed-point detection and the written value.
fn step_bytes(n: usize, m: usize) -> u64 {
    let per_edge = size_of::<Node>() + 2 * size_of::<f64>();
    let per_node = size_of::<usize>() + 4 * size_of::<f64>();
    (m * per_edge + n * per_node) as u64
}

/// Runs every probe on each input of `rep`. Spans carry the timings.
pub fn run(rep: &Rep, w: Workload, seed: u64, tr: &Tracer) -> Result<ColdSolveWork, String> {
    let mut work = ColdSolveWork::default();
    for input in &rep.inputs {
        let inst = &input.instance;
        let n = inst.num_nodes();
        let k_max = budgets(n).into_iter().max().ok_or("instance too small")?;
        let problem = Problem::new(inst, input.target, k_max, HORIZON, w.rule())
            .map_err(|e| format!("{}: {e}", input.name))?;
        let others = tr.span("core.non_target_opinions", None, || {
            problem.non_target_opinions()
        });
        tr.span("voting.rank_index_build", None, || {
            RankIndex::build(&others, input.target)
        });
        let cfg = w.rs_config(seed, n);
        let theta = choose_theta(&problem, &cfg);
        let cand = inst.candidate(input.target);
        tr.span("sketch.generate", None, || {
            SketchSet::generate(
                &cand.graph,
                &cand.stubbornness,
                &cand.initial,
                HORIZON,
                theta,
                cfg.seed,
            )
        });
        for q in 0..inst.num_candidates() {
            let system = Arc::clone(inst.candidate(q).system());
            let m = system.num_edges();
            let mut solver = Solver::new(Arc::clone(&system));
            let report = tr.span("diffusion.cold_solve", None, || {
                solver.solve(&[], &SolveOptions::exact(HORIZON))
            });
            let steps = report.steps as u64;
            work.edge_steps += steps * m as u64;
            work.bytes += steps * step_bytes(n, m);
        }
    }
    Ok(work)
}
