//! Statistical lower bound on `OPT` for the cumulative score.
//!
//! Theorem 13's θ depends on `OPT`, which is unknown. Following the
//! paper's §VI-B (which adopts Algorithm 2 of the IMM paper), we run a
//! hypothesis test for exponentially decreasing guesses
//! `x ∈ {n/2, n/4, …, k}`: build a sketch set sized for `x`, greedily
//! select `k` seeds on it, and accept `x` once the estimated score clears
//! `(1 + ε′)·x`. A rejected guess means `OPT < x` with high probability.

use crate::sketch::SketchSet;
use crate::theta::ln_choose;
use vom_graph::{Node, SocialGraph};
use vom_walks::WalkEstimator;

/// Greedy cumulative-score seed selection directly on a sketch
/// estimator: repeatedly add the node with the largest estimated marginal
/// gain, from a full rescan per iteration. Returns the seeds in selection
/// order (the estimator keeps them applied). This is the inner loop of
/// the OPT test only — the RS selector runs `vom-core`'s CELF greedy.
///
/// The argmax is `Iterator::max_by`, so equal gains go to the **largest**
/// node id, unlike `vom-core`'s greedies (smallest id). The quirk is
/// kept: the OPT bound sets RS's cumulative θ, and the pinned selection
/// digests depend on it.
pub fn greedy_cumulative(sketch: &mut WalkEstimator, k: usize) -> Vec<Node> {
    let mut seeds = Vec::with_capacity(k);
    for _ in 0..k {
        let gains = sketch.cumulative_gains(None);
        let best = gains
            .iter()
            .enumerate()
            .filter(|(v, _)| !sketch.is_seed(*v as Node))
            // `total_cmp`: total order even for NaN gains (degenerate
            // estimates order deterministically instead of panicking).
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(v, _)| v as Node);
        let Some(u) = best else { break };
        sketch.add_seed(u);
        seeds.push(u);
    }
    seeds
}

/// Parameters for the OPT lower-bound test.
#[derive(Debug, Clone)]
pub struct OptBoundConfig {
    /// Accuracy parameter ε of the final guarantee.
    pub epsilon: f64,
    /// Confidence exponent `l` (failure probability `n^{-l}`).
    pub l: f64,
    /// RNG seed.
    pub seed: u64,
    /// Cap on the per-guess sketch count, to bound the cost of the test
    /// on adversarial inputs.
    pub max_theta: usize,
}

impl Default for OptBoundConfig {
    fn default() -> Self {
        OptBoundConfig {
            epsilon: 0.1,
            l: 1.0,
            seed: 0x0B7B_0D11,
            max_theta: 4_000_000,
        }
    }
}

/// Estimates a lower bound on `OPT = max_{|S|=k} Σ_v b_qv^{(t)}[S]`.
///
/// Always returns at least `k` — `k` fully-stubborn seeds at opinion 1
/// contribute `k` on their own, so `OPT ≥ k` unconditionally.
pub fn opt_lower_bound(
    graph: &SocialGraph,
    stubbornness: &[f64],
    b0_target: &[f64],
    t: usize,
    k: usize,
    cfg: &OptBoundConfig,
) -> f64 {
    let n = graph.num_nodes();
    let k = k.min(n);
    let mut lb = k as f64;
    if n <= 1 {
        return lb;
    }
    let eps_prime = std::f64::consts::SQRT_2 * cfg.epsilon;
    let n_f = n as f64;
    let log_term = ln_choose(n, k) + cfg.l * n_f.ln() + n_f.log2().max(1.0).ln();
    let mut x = n_f / 2.0;
    let mut round = 0u64;
    while x >= lb.max(1.0) {
        let theta = (((2.0 + 2.0 / 3.0 * eps_prime) * n_f * log_term) / (eps_prime * eps_prime * x))
            .ceil() as usize;
        let theta = theta.clamp(1, cfg.max_theta);
        let mut sketch = SketchSet::generate(
            graph,
            stubbornness,
            b0_target,
            t,
            theta,
            cfg.seed.wrapping_add(round),
        )
        .estimator();
        greedy_cumulative(&mut sketch, k);
        let est = sketch.estimated_cumulative();
        if est >= (1.0 + eps_prime) * x {
            return (est / (1.0 + eps_prime)).max(lb);
        }
        x /= 2.0;
        round += 1;
    }
    lb = lb.max(b0_target.iter().sum::<f64>());
    lb
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;
    use vom_graph::generators;

    #[test]
    fn greedy_on_sketches_picks_influential_node() {
        // Star hub 0 -> everyone; hub as seed lifts all estimates.
        let edges = generators::star(50);
        let g = graph_from_edges(50, &edges).unwrap();
        let d = vec![0.3; 50];
        let b0 = vec![0.0; 50];
        let s = SketchSet::generate(&g, &d, &b0, 5, 20_000, 3);
        let seeds = greedy_cumulative(&mut s.estimator(), 1);
        assert_eq!(seeds, vec![0], "the hub dominates every other choice");
    }

    #[test]
    fn opt_bound_is_at_least_k_and_at_most_n() {
        let edges = generators::cycle(30);
        let g = graph_from_edges(30, &edges).unwrap();
        let d = vec![0.5; 30];
        let b0 = vec![0.2; 30];
        let lb = opt_lower_bound(&g, &d, &b0, 5, 3, &OptBoundConfig::default());
        assert!(lb >= 3.0, "OPT >= k always; got {lb}");
        // OPT <= n for the cumulative score.
        assert!(lb <= 30.0 + 1e-9, "lower bound cannot exceed n; got {lb}");
    }

    #[test]
    fn opt_bound_detects_high_baseline_scores() {
        // Everybody already at opinion ~0.9: OPT >= 0.9n, and the first
        // guess x = n/2 should be accepted.
        let edges = generators::cycle(40);
        let g = graph_from_edges(40, &edges).unwrap();
        let d = vec![0.5; 40];
        let b0 = vec![0.9; 40];
        let lb = opt_lower_bound(&g, &d, &b0, 3, 2, &OptBoundConfig::default());
        assert!(lb >= 20.0 * 0.9, "expected a strong bound, got {lb}");
    }
}
