//! Equivalence tests for the diffusion solver: cold solves must be
//! bit-identical to an independent reference iteration, and warm-start
//! solves must be bit-identical to cold solves across random graphs,
//! inputs, and incremental seed sequences — the invariant that lets the
//! DM greedy take the warm path while keeping selection digests
//! byte-identical.

use proptest::prelude::*;
use std::sync::Arc;
use vom_diffusion::{DiffusionSystem, SolveOptions, Solver};
use vom_graph::builder::graph_from_edges;
use vom_graph::{Node, SocialGraph};

/// The reference FJ iteration `B^(t)[seeds]`, written against the
/// graph's own [`SocialGraph::in_entries`] with the unfolded update
/// `(1 − d_v)·Σ w·b + d_v·b⁰_v` and seeds pinned at 1 — independent of
/// the solver's CSR copy, its folded per-node constants and its
/// early exit.
fn reference(g: &SocialGraph, b0: &[f64], d: &[f64], t: usize, seeds: &[Node]) -> Vec<f64> {
    let n = g.num_nodes();
    let mut is_seed = vec![false; n];
    for &s in seeds {
        is_seed[s as usize] = true;
    }
    let mut cur: Vec<f64> = (0..n)
        .map(|v| if is_seed[v] { 1.0 } else { b0[v] })
        .collect();
    for _ in 0..t {
        cur = (0..n)
            .map(|v| {
                if is_seed[v] {
                    1.0
                } else if !g.has_in_edges(v as Node) {
                    cur[v]
                } else {
                    let mut acc = 0.0;
                    for (j, w) in g.in_entries(v as Node) {
                        acc += w * cur[j as usize];
                    }
                    (1.0 - d[v]) * acc + d[v] * b0[v]
                }
            })
            .collect();
    }
    cur
}

/// Strategy: a random small weighted digraph + opinions + stubbornness.
fn arb_system() -> impl Strategy<Value = (SocialGraph, Vec<f64>, Vec<f64>)> {
    (3usize..12).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n as Node, 0..n as Node, 0.1f64..5.0), 1..(3 * n));
        let opinions = proptest::collection::vec(0.0f64..=1.0, n);
        let stubbornness = proptest::collection::vec(0.0f64..=1.0, n);
        (edges, opinions, stubbornness).prop_map(move |(edges, b0, d)| {
            let g = graph_from_edges(n, &edges).expect("valid random edges");
            (g, b0, d)
        })
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The paper's Figure 1 running example (0-indexed).
fn running_example() -> (SocialGraph, Vec<f64>, Vec<f64>) {
    let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
    (g, vec![0.40, 0.80, 0.60, 0.90], vec![0.0, 0.0, 0.5, 0.5])
}

#[test]
fn cold_solve_matches_reference_on_running_example() {
    let (g, b0, d) = running_example();
    let mut solver = Solver::new(Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap()));
    for t in 0..6 {
        for seeds in [vec![], vec![0], vec![2], vec![0, 1]] {
            solver.solve(&seeds, &SolveOptions::exact(t));
            let reference = reference(&g, &b0, &d, t, &seeds);
            assert_eq!(
                bits(solver.opinions()),
                bits(&reference),
                "t={t} seeds={seeds:?}"
            );
        }
    }
}

#[test]
fn fixed_point_early_exit_keeps_values_exact() {
    // 0 -> 1 with full stubbornness everywhere: nothing ever moves,
    // so the solve must stop after one step with identical values.
    let g = graph_from_edges(2, &[(0, 1, 1.0)]).unwrap();
    let b0 = [0.3, 0.7];
    let d = [1.0, 1.0];
    let mut solver = Solver::new(Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap()));
    let rep = solver.solve(&[], &SolveOptions::exact(50));
    assert!(rep.converged);
    assert!(rep.steps < 50);
    assert_eq!(
        bits(solver.opinions()),
        bits(&reference(&g, &b0, &d, 50, &[]))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cold_solve_is_bit_identical_to_reference(
        (g, b0, d) in arb_system(),
        t in 0usize..15,
        raw_seeds in proptest::collection::vec(0u32..12, 0..4),
    ) {
        let n = g.num_nodes() as Node;
        let seeds: Vec<Node> = raw_seeds.iter().map(|s| s % n).collect();
        let system = Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap());
        let mut solver = Solver::new(system);
        solver.solve(&seeds, &SolveOptions::exact(t));
        prop_assert_eq!(bits(solver.opinions()), bits(&reference(&g, &b0, &d, t, &seeds)));
    }

    #[test]
    fn warm_solve_is_bit_identical_to_cold_solve(
        (g, b0, d) in arb_system(),
        t in 1usize..15,
        committed in proptest::collection::vec(0u32..12, 0..3),
        trials in proptest::collection::vec(0u32..12, 1..5),
    ) {
        // The DM greedy shape: record a baseline for the committed set,
        // then evaluate committed ∪ {trial} for a sequence of trial nodes
        // against the same baseline.
        let n = g.num_nodes() as Node;
        let committed: Vec<Node> = committed.iter().map(|s| s % n).collect();
        let system = Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap());
        let mut warm = Solver::new(Arc::clone(&system));
        let mut cold = Solver::new(Arc::clone(&system));
        warm.solve(&committed, &SolveOptions::exact(t).recording());
        for trial in trials {
            let mut seeds = committed.clone();
            seeds.push(trial % n);
            let report = warm.solve(&seeds, &SolveOptions::exact(t).warm());
            prop_assert!(report.warm, "matching baseline must take the warm path");
            cold.solve(&seeds, &SolveOptions::exact(t));
            prop_assert_eq!(bits(warm.opinions()), bits(cold.opinions()));
        }
    }

    #[test]
    fn warm_equivalence_survives_growing_the_committed_set(
        (g, b0, d) in arb_system(),
        t in 1usize..12,
        picks in proptest::collection::vec(0u32..12, 1..5),
    ) {
        // Re-record after each commit, exactly like the greedy loop does,
        // and check the next warm evaluation still matches cold.
        let n = g.num_nodes() as Node;
        let system = Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap());
        let mut warm = Solver::new(Arc::clone(&system));
        let mut cold = Solver::new(Arc::clone(&system));
        let mut committed: Vec<Node> = Vec::new();
        for pick in picks {
            warm.solve(&committed, &SolveOptions::exact(t).recording());
            committed.push(pick % n);
            let report = warm.solve(&committed, &SolveOptions::exact(t).warm());
            prop_assert!(report.warm);
            cold.solve(&committed, &SolveOptions::exact(t));
            prop_assert_eq!(bits(warm.opinions()), bits(cold.opinions()));
        }
    }
}
