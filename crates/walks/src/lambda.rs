//! Walk-count bounds (Theorems 10–12) and the `γ*` heuristic (Eq. 33).

use crate::estimator::WalkEstimator;
use crate::generator::{Lambda, WalkGenerator};
use std::sync::Arc;
use vom_graph::{Node, SocialGraph};

/// Theorem 10: walks per node so that every opinion estimate is within
/// `δ` of the truth with probability at least `ρ`:
/// `λ ≥ ln(2 / (1 − ρ)) / (2δ²)`.
pub fn lambda_cumulative(delta: f64, rho: f64) -> usize {
    assert!(delta > 0.0, "delta must be positive");
    assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
    ((2.0 / (1.0 - rho)).ln() / (2.0 * delta * delta)).ceil() as usize
}

/// Theorem 11: walks so a user's *position* of the target candidate is
/// estimated correctly with probability at least `ρ`, given the opinion
/// gap `γ_v[S]`: `λ ≥ ln(2 / (1 − ρ)) / (2γ²)`.
pub fn lambda_rank(gamma: f64, rho: f64) -> usize {
    lambda_cumulative(gamma, rho)
}

/// Theorem 12: walks so each one-on-one comparison against another
/// candidate is estimated correctly with probability at least `ρ`:
/// `λ ≥ ln(1 / (1 − ρ)) / (2γ²)` (one-sided, hence the smaller constant).
pub fn lambda_copeland(gamma: f64, rho: f64) -> usize {
    assert!(gamma > 0.0, "gamma must be positive");
    assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
    ((1.0 / (1.0 - rho)).ln() / (2.0 * gamma * gamma)).ceil() as usize
}

/// Configuration for the `γ*` estimation heuristic (§V-C).
#[derive(Debug, Clone)]
pub struct GammaConfig {
    /// Walks per node for the pilot estimates; the paper suggests the
    /// Theorem 10 count `ln(2/(1−ρ)) / (2δ²)`.
    pub alpha: usize,
    /// Seed budget `k` the final selection will use (γ* minimizes over
    /// seed sets of size ≤ k).
    pub k: usize,
    /// Lower clamp on γ̂: tiny gaps would demand astronomically many
    /// walks, so estimates are floored here (making those users' rank
    /// estimates best-effort — they are the coin-flip users anyway).
    pub floor: f64,
    /// RNG seed for the pilot walks.
    pub seed: u64,
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig {
            alpha: lambda_cumulative(0.1, 0.9),
            k: 10,
            floor: 0.05,
            seed: 0x00C0_FFEE,
        }
    }
}

/// Estimates `γ*_v = min_{|S| ≤ k} γ_v[S]` (Eq. 33) for every user.
///
/// `γ_v[S] = min_{p ≠ q} |b_pv^{(t)} − b̂_qv^{(t)}[S]|` couples the walk
/// count to how close the race is at user `v`. Minimizing over all seed
/// sets exactly is infeasible, so — following the paper's greedy
/// heuristic — we grow one greedy seed sequence (the nodes that move the
/// estimates the most, i.e. maximal estimated cumulative gain), track the
/// minimum γ̂_v observed at any prefix of it, and clamp at `floor`.
///
/// The pilot greedy picks its argmax with `Iterator::max_by`, so equal
/// gains go to the **largest** node id — unlike the selection greedies of
/// `vom-core`, which break ties toward the smallest. The quirk is kept:
/// γ* sets RW's walk counts, and the pinned selection digests depend on
/// them.
///
/// `non_target_rows` are the *exact* horizon-`t` opinions of every other
/// candidate (they do not depend on the target's seeds).
pub fn estimate_gamma_star(
    graph: &SocialGraph,
    stubbornness: &[f64],
    b0_target: &[f64],
    non_target_rows: &[&[f64]],
    t: usize,
    cfg: &GammaConfig,
) -> Vec<f64> {
    let n = graph.num_nodes();
    let gen = WalkGenerator::new(graph, stubbornness, t);
    let arena = gen.generate_per_node(&Lambda::Uniform(cfg.alpha.max(1)), cfg.seed);
    let mut est = WalkEstimator::new(Arc::new(arena), b0_target);

    // γ̂_v[S] on the current estimates.
    let gap = |est: &WalkEstimator, v: Node| -> f64 {
        let estimate = est
            .estimate(v)
            .expect("per-node arenas estimate every user");
        non_target_rows
            .iter()
            .map(|row| (row[v as usize] - estimate).abs())
            .fold(f64::INFINITY, f64::min)
    };

    let mut gamma: Vec<f64> = (0..n as Node).map(|v| gap(&est, v)).collect();
    for _ in 0..cfg.k {
        let gains = est.cumulative_gains(None);
        let Some((best, best_gain)) = gains
            .iter()
            .copied()
            .enumerate()
            .filter(|(v, _)| !est.is_seed(*v as Node))
            // `total_cmp`: total order even for NaN gains (degenerate
            // estimates order deterministically instead of panicking).
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break;
        };
        if best_gain <= 0.0 {
            break;
        }
        let touched = est.add_seed(best as Node);
        for v in touched {
            let g = gap(&est, v);
            if g < gamma[v as usize] {
                gamma[v as usize] = g;
            }
        }
    }
    for g in &mut gamma {
        if !g.is_finite() || *g < cfg.floor {
            *g = cfg.floor;
        }
    }
    gamma
}

/// Converts per-node γ estimates into per-node walk counts via the
/// Theorem 11/12 bounds, capped at `max_lambda` to bound memory.
pub fn lambda_from_gammas(gammas: &[f64], rho: f64, copeland: bool, max_lambda: usize) -> Lambda {
    let counts: Vec<u32> = gammas
        .iter()
        .map(|&g| {
            let l = if copeland {
                lambda_copeland(g, rho)
            } else {
                lambda_rank(g, rho)
            };
            l.min(max_lambda) as u32
        })
        .collect();
    Lambda::PerNode(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;

    #[test]
    fn theorem10_bound_matches_formula() {
        // δ = 0.1, ρ = 0.9: ln(20) / 0.02 ≈ 149.8 -> 150.
        assert_eq!(lambda_cumulative(0.1, 0.9), 150);
        // Tighter δ needs quadratically more walks.
        assert_eq!(lambda_cumulative(0.05, 0.9), 600);
    }

    #[test]
    fn copeland_bound_is_smaller() {
        assert!(lambda_copeland(0.1, 0.9) < lambda_rank(0.1, 0.9));
        assert_eq!(lambda_copeland(0.1, 0.9), 116); // ln(10)/0.02 ≈ 115.13
    }

    #[test]
    fn bounds_increase_with_rho() {
        assert!(lambda_cumulative(0.1, 0.95) > lambda_cumulative(0.1, 0.75));
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn zero_delta_rejected() {
        lambda_cumulative(0.0, 0.9);
    }

    #[test]
    fn gamma_star_is_floored_and_not_above_initial_gap() {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let d = vec![0.0, 0.0, 0.5, 0.5];
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let c2 = vec![0.35, 0.75, 0.78, 0.90];
        let cfg = GammaConfig {
            alpha: 2000,
            k: 2,
            floor: 0.02,
            seed: 7,
        };
        let gamma = estimate_gamma_star(&g, &d, &b0, &[&c2], 1, &cfg);
        assert_eq!(gamma.len(), 4);
        for &g in &gamma {
            assert!(g >= 0.02 - 1e-12);
        }
        // Node 0's seedless gap is |0.35 - 0.40| = 0.05 and cannot grow.
        assert!(gamma[0] <= 0.06, "gamma[0] = {}", gamma[0]);
    }

    #[test]
    fn lambda_from_gammas_caps() {
        let l = lambda_from_gammas(&[0.001, 0.5], 0.9, false, 1000);
        match l {
            Lambda::PerNode(v) => {
                assert_eq!(v[0], 1000, "tiny gamma capped");
                assert!(v[1] < 10);
            }
            _ => panic!("expected per-node lambda"),
        }
    }
}
