//! Per-step opinion-change tracking and oblivious-node detection.
//!
//! The paper motivates the *finite time horizon* (Appendix B) by showing
//! that a significant fraction of users still change opinions before
//! `t = 30` (Figure 18) and that optimal seed sets differ across horizons.
//! These routines reproduce that analysis and check FJ's convergence
//! precondition.

use crate::solver::{DiffusionSystem, SolveOptions, Solver};
use std::sync::Arc;
use vom_graph::{Node, SocialGraph};

/// For each `t ∈ 1..=t_max`, the fraction of nodes whose opinion changed
/// by more than `tolerance_percent`% of its previous value — exactly the
/// quantity plotted in Figure 18:
/// `|b^(t) − b^(t−1)| > (∆/100) · b^(t−1)`.
///
/// The trajectory comes from one recording solve; its rows past a
/// bitwise fixed point clamp (see [`crate::Baseline::row`]), so the
/// series reads zero from there on.
pub fn change_fraction_series(
    system: &Arc<DiffusionSystem>,
    seeds: &[Node],
    t_max: usize,
    tolerance_percent: f64,
) -> Vec<f64> {
    let mut solver = Solver::new(Arc::clone(system));
    solver.solve(seeds, &SolveOptions::exact(t_max).recording());
    let base = solver
        .baseline()
        .expect("a recording solve installs its baseline");
    let n = system.num_nodes() as f64;
    let thr = tolerance_percent / 100.0;
    (1..=t_max)
        .map(|t| {
            let changed = base
                .row(t - 1)
                .iter()
                .zip(base.row(t))
                .filter(|(prev, cur)| (*cur - *prev).abs() > thr * **prev)
                .count();
            changed as f64 / n
        })
        .collect()
}

/// Oblivious nodes per the paper's §II-A: non-stubborn nodes not reachable
/// from any (partially or fully) stubborn node. FJ convergence is
/// guaranteed iff the subgraph induced by oblivious nodes is regular or
/// empty; detecting them lets callers check the precondition.
///
/// `stubbornness` is the diagonal of `D`, one value per node of `graph`.
pub fn oblivious_nodes(graph: &SocialGraph, stubbornness: &[f64]) -> Vec<Node> {
    let n = graph.num_nodes();
    // Nodes without in-edges hold their initial opinion forever; they act
    // as stubborn sources for this analysis.
    let stubborn: Vec<Node> = (0..n as Node)
        .filter(|&v| stubbornness[v as usize] > 0.0 || !graph.has_in_edges(v))
        .collect();
    let mut reachable = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in &stubborn {
        reachable[s as usize] = true;
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        for &w in graph.out_neighbors(v) {
            if !reachable[w as usize] {
                reachable[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    (0..n as Node)
        .filter(|&v| {
            stubbornness[v as usize] == 0.0 && graph.has_in_edges(v) && !reachable[v as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;

    fn system(g: &SocialGraph, b0: &[f64], d: &[f64]) -> Arc<DiffusionSystem> {
        Arc::new(DiffusionSystem::new(g, b0, d).unwrap())
    }

    /// Figure 18's series built from independent per-horizon cold solves
    /// (`t_max + 1` of them) instead of one recorded trajectory.
    fn per_horizon_series(
        sys: &Arc<DiffusionSystem>,
        seeds: &[Node],
        t_max: usize,
        tolerance_percent: f64,
    ) -> Vec<f64> {
        let rows: Vec<Vec<f64>> = (0..=t_max)
            .map(|t| {
                let mut solver = Solver::new(Arc::clone(sys));
                solver.solve(seeds, &SolveOptions::exact(t));
                solver.opinions().to_vec()
            })
            .collect();
        let thr = tolerance_percent / 100.0;
        rows.windows(2)
            .map(|w| {
                let changed = w[0]
                    .iter()
                    .zip(&w[1])
                    .filter(|(prev, cur)| (*cur - *prev).abs() > thr * **prev)
                    .count();
                changed as f64 / sys.num_nodes() as f64
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn change_fraction_decays_to_zero() {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let sys = system(&g, &[0.40, 0.80, 0.60, 0.90], &[0.0, 0.0, 0.5, 0.5]);
        let series = change_fraction_series(&sys, &[], 40, 1.0);
        assert_eq!(series.len(), 40);
        assert!(series[0] > 0.0, "something changes at t=1");
        assert_eq!(*series.last().unwrap(), 0.0, "settled by t=40");
        // Larger tolerance can only reduce the changing fraction.
        let loose = change_fraction_series(&sys, &[], 40, 20.0);
        for (tight, loose) in series.iter().zip(&loose) {
            assert!(loose <= tight);
        }
    }

    #[test]
    fn recorded_series_matches_per_horizon_cold_solves() {
        // Running example: settles to a bitwise fixed point well before
        // t_max, so the recorded rows past it are clamped.
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let settling = system(&g, &[0.40, 0.80, 0.60, 0.90], &[0.0, 0.0, 0.5, 0.5]);
        let t_max = 200;
        let rep = Solver::new(Arc::clone(&settling)).solve(&[1], &SolveOptions::exact(t_max));
        assert!(rep.converged && rep.steps < t_max, "{rep:?}");
        // DeGroot 2-cycle: swaps forever, every row is stored.
        let g = graph_from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let cycle = system(&g, &[1.0, 0.2], &[0.0, 0.0]);
        for (sys, seeds, t_max) in [
            (&settling, &[][..], t_max),
            (&settling, &[1][..], t_max),
            (&cycle, &[][..], 30),
            (&settling, &[][..], 0),
            (&cycle, &[][..], 0),
        ] {
            for tol in [0.1, 1.0, 5.0] {
                let recorded = change_fraction_series(sys, seeds, t_max, tol);
                assert_eq!(recorded.len(), t_max);
                assert_eq!(
                    bits(&recorded),
                    bits(&per_horizon_series(sys, seeds, t_max, tol)),
                    "seeds {seeds:?}, t_max {t_max}, tol {tol}"
                );
            }
        }
        assert!(change_fraction_series(&cycle, &[], 30, 1.0)
            .iter()
            .all(|&f| f == 1.0));
    }

    #[test]
    fn oblivious_cycle_is_detected() {
        // 2-cycle of non-stubborn nodes, unreachable from anything
        // stubborn; node 2 is fed only by the cycle, so all three are
        // oblivious (nothing stubborn exists in this graph).
        let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0)]).unwrap();
        assert_eq!(oblivious_nodes(&g, &[0.0, 0.0, 0.0]), vec![0, 1, 2]);
    }

    #[test]
    fn stubbornness_removes_obliviousness() {
        let g = graph_from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(oblivious_nodes(&g, &[0.5, 0.0]).is_empty());
    }

    #[test]
    fn source_fed_nodes_are_not_oblivious() {
        // 0 (no in-edges) -> 1: node 1 is anchored by the source.
        let g = graph_from_edges(2, &[(0, 1, 1.0)]).unwrap();
        assert!(oblivious_nodes(&g, &[0.0, 0.0]).is_empty());
    }
}
