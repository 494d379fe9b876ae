//! The sketch set: θ walks from uniformly sampled start nodes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vom_diffusion::OpinionMatrix;
use vom_graph::{Candidate, Node, SocialGraph};
use vom_voting::rank::beta_with_target;
use vom_voting::ScoringFunction;
use vom_walks::{pooled_end_values, Truncation, WalkArena, WalkEstimator, WalkGenerator};

/// θ reverse random walks from uniformly sampled starts (Algorithm 5's
/// sketches), with their seedless truncation state and pooled end
/// values — the immutable data an RS index caches and persists.
///
/// Because start nodes are sampled with replacement, a node can head
/// several sketches; per the paper's §VI-B (footnote 6) all walks sharing
/// a start are **pooled** into one estimate `b̂_qv[S]`, and each of the θ
/// samples contributes through its start's pooled estimate. Pooling is
/// what makes the rank-based estimates (Eqs. 42/47) consistent — a
/// single-walk estimate of a rank indicator is biased. Queries run on a
/// [`WalkEstimator`] working copy ([`SketchSet::estimator`]), which
/// shares the immutable walk arena (`Arc`), copies the `O(θ + n)`
/// truncation state and re-derives the pooled arrays in the same pass
/// that fills its per-walk gains.
#[derive(Debug)]
pub struct SketchSet {
    arena: Arc<WalkArena>,
    trunc: Truncation,
    b0: Vec<f64>,
    /// Per start node: sum of seedless end values over its sketches.
    /// Persisted (and counted in the heap footprint) as the `.vpi`
    /// format has always held it; working estimators re-derive it.
    start_sum: Vec<f64>,
    /// Per start node: number of sketches started there (persisted like
    /// `start_sum`, and checked against the starts on load).
    start_count: Vec<u32>,
}

impl SketchSet {
    /// Samples `theta` start nodes uniformly at random (with replacement,
    /// as in Algorithm 5) and generates one seedless `t`-step reverse walk
    /// from each.
    pub fn generate(
        graph: &SocialGraph,
        stubbornness: &[f64],
        b0_target: &[f64],
        t: usize,
        theta: usize,
        seed: u64,
    ) -> Self {
        let n = graph.num_nodes();
        let mut rng = SmallRng::seed_from_u64(seed);
        let starts: Vec<Node> = (0..theta).map(|_| rng.gen_range(0..n) as Node).collect();
        let gen = WalkGenerator::new(graph, stubbornness, t);
        let arena = gen.generate_for_starts(&starts, seed.wrapping_add(1));
        let trunc = Truncation::new(&arena, n);
        let (start_sum, start_count) = pooled_end_values(&arena, &trunc, b0_target);
        SketchSet {
            arena: Arc::new(arena),
            trunc,
            b0: b0_target.to_vec(),
            start_sum,
            start_count,
        }
    }

    /// Reassembles a *pristine* (seedless) sketch set from persisted
    /// parts: the shared walk arena, its truncation state, and the pooled
    /// end-value arrays (snapshot load). Shapes, the sampled layout,
    /// `b0 ∈ [0, 1]` and the per-start counts are validated against the
    /// arena; the pooled sums are restored bit-for-bit (queries do not
    /// read them: each working estimator re-derives them).
    pub fn from_parts(
        arena: Arc<WalkArena>,
        trunc: Truncation,
        b0: Vec<f64>,
        n: usize,
        start_sum: Vec<f64>,
        start_count: Vec<u32>,
    ) -> Result<Self, &'static str> {
        if b0.len() != n || start_sum.len() != n || start_count.len() != n {
            return Err("per-node sketch arrays must have length n");
        }
        if !trunc.seeds().is_empty() {
            return Err("a persisted sketch set must be pristine");
        }
        if arena.has_groups() {
            return Err("sketch starts are sampled, not grouped");
        }
        if arena.walks().any(|w| w.iter().any(|&v| (v as usize) >= n)) {
            return Err("sketch walk node out of range");
        }
        // `contains` is false for NaN, so this rejects it too.
        if !b0.iter().all(|b| (0.0..=1.0).contains(b)) {
            return Err("initial opinions must lie in [0, 1]");
        }
        let mut histogram = vec![0u32; n];
        for j in 0..arena.num_walks() {
            histogram[arena.start(j) as usize] += 1;
        }
        if histogram != start_count {
            return Err("start counts disagree with the sketch starts");
        }
        Ok(SketchSet {
            arena,
            trunc,
            b0,
            start_sum,
            start_count,
        })
    }

    /// The persisted pieces: the shared arena, the truncation, and the
    /// pooled arrays `(b0, start_sum, start_count)` — exactly the
    /// buffers a snapshot writer serializes verbatim. (Per-sketch gains
    /// are not stored: each query's estimator derives them.)
    pub fn parts(&self) -> (&Arc<WalkArena>, &Truncation, &[f64], &[f64], &[u32]) {
        (
            &self.arena,
            &self.trunc,
            &self.b0,
            &self.start_sum,
            &self.start_count,
        )
    }

    /// Number of sketches `θ`.
    pub fn theta(&self) -> usize {
        self.arena.num_walks()
    }

    /// A seedless working estimator over these sketches.
    pub fn estimator(&self) -> WalkEstimator {
        WalkEstimator::with_truncation(Arc::clone(&self.arena), self.trunc.clone(), &self.b0)
    }

    /// Resets `est` to these sketches' seedless state, reusing its
    /// buffers (a query session keeps one working estimator).
    pub fn reset_estimator(&self, est: &mut WalkEstimator) {
        est.reset(&self.arena, &self.trunc, &self.b0);
    }

    /// Exact owned heap footprint (Figure 17's memory comparison and the
    /// scale-stress workload): `Vec` **capacities**, the shared arena's
    /// buffers, and the truncation state — post-build slack included.
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
            + self.trunc.heap_bytes()
            + self.b0.capacity() * std::mem::size_of::<f64>()
            + self.start_sum.capacity() * std::mem::size_of::<f64>()
            + self.start_count.capacity() * std::mem::size_of::<u32>()
    }
}

/// Estimated positional-p-approval score (Eq. 42) of `est`'s current seed
/// set: each user contributes `ω[β(b̂_qv)]·1[β ≤ p]` once per sample it
/// stands for ([`WalkEstimator::votes`]), scaled by `n/θ` on sketches,
/// where `β` ranks the pooled target estimate against the *exact*
/// opinions of the other candidates for that user. `score` must be a
/// plurality variant; `non_target` holds exact horizon-`t` opinions of
/// all candidates (the target row is ignored).
pub fn estimated_positional(
    est: &WalkEstimator,
    score: &ScoringFunction,
    non_target: &OpinionMatrix,
    q: Candidate,
) -> f64 {
    let p = score
        .approval_depth()
        .expect("estimated_positional requires a plurality-variant score");
    let mut total = 0.0;
    for v in 0..est.num_nodes() as Node {
        let Some(b) = est.estimate(v) else { continue };
        total += est.votes(v) as f64 * positional_contribution(score, non_target, q, v, b, p);
    }
    let arena = est.arena();
    if arena.has_groups() {
        total
    } else {
        total * est.num_nodes() as f64 / arena.num_walks() as f64
    }
}

/// Estimated Copeland score (Eq. 47) of `est`'s current seed set:
/// `c_q ≻_M̂ c_x` iff more samples hold `b̂_qv > b_xv` than the opposite
/// (users vote with their integer [`WalkEstimator::votes`], so a tie is
/// exact and never a win).
pub fn estimated_copeland(est: &WalkEstimator, non_target: &OpinionMatrix, q: Candidate) -> f64 {
    let wins = (0..non_target.num_candidates())
        .filter(|&x| x != q)
        .filter(|&x| {
            let mut above = 0i64;
            for v in 0..est.num_nodes() as Node {
                let Some(b) = est.estimate(v) else { continue };
                let bx = non_target.get(x, v);
                if b > bx {
                    above += i64::from(est.votes(v));
                } else if b < bx {
                    above -= i64::from(est.votes(v));
                }
            }
            above > 0
        })
        .count();
    wins as f64
}

/// One user's contribution to the positional estimate (Eq. 42 summand).
pub(crate) fn positional_contribution(
    score: &ScoringFunction,
    non_target: &OpinionMatrix,
    q: Candidate,
    user: Node,
    target_value: f64,
    p: usize,
) -> f64 {
    let rank = beta_with_target(non_target, q, user, target_value);
    if rank <= p {
        score.position_weight(rank)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;

    fn running_example() -> (SocialGraph, Vec<f64>, Vec<f64>, OpinionMatrix) {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let d = vec![0.0, 0.0, 0.5, 0.5];
        // Exact opinions at t = 1; competitor row from Table I.
        let exact = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.75],
            vec![0.35, 0.75, 0.78, 0.90],
        ])
        .unwrap();
        (g, b0, d, exact)
    }

    /// The persisted pieces of `s`, owned, for `from_parts` round trips.
    type OwnedParts = (Arc<WalkArena>, Truncation, Vec<f64>, Vec<f64>, Vec<u32>);

    fn owned_parts(s: &SketchSet) -> OwnedParts {
        let (arena, trunc, b0, sums, counts) = s.parts();
        (
            Arc::clone(arena),
            trunc.clone(),
            b0.to_vec(),
            sums.to_vec(),
            counts.to_vec(),
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let (g, b0, d, _) = running_example();
        let a = SketchSet::generate(&g, &d, &b0, 2, 500, 7);
        let b = SketchSet::generate(&g, &d, &b0, 2, 500, 7);
        assert_eq!(a.theta(), 500);
        let (arena_a, _, _, sums_a, counts_a) = a.parts();
        let (arena_b, _, _, sums_b, counts_b) = b.parts();
        assert_eq!(arena_a, arena_b);
        assert_eq!(counts_a, counts_b);
        assert_eq!(counts_a.iter().sum::<u32>(), 500);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(sums_a), bits(sums_b));
    }

    #[test]
    fn cumulative_estimate_converges() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 1, 200_000, 11);
        // Exact cumulative at t=1, no seeds: 2.55.
        let est = s.estimator().estimated_cumulative();
        assert!((est - 2.55).abs() < 0.05, "estimate {est}");
    }

    #[test]
    fn plurality_estimate_converges() {
        let (g, b0, d, exact) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 1, 200_000, 19);
        // Exact plurality at t=1, no seeds: 2 (users 0 and 1).
        let est = estimated_positional(&s.estimator(), &ScoringFunction::Plurality, &exact, 0);
        assert!((est - 2.0).abs() < 0.1, "estimate {est}");
    }

    #[test]
    fn seeded_plurality_estimate_converges() {
        let (g, b0, d, exact) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 1, 200_000, 23);
        let mut est = s.estimator();
        est.add_seed(2);
        // Table I row {3}: plurality 4.
        let score = estimated_positional(&est, &ScoringFunction::Plurality, &exact, 0);
        assert!((score - 4.0).abs() < 0.1, "estimate {score}");
    }

    #[test]
    fn copeland_estimate_matches_exact_on_clear_majorities() {
        // Note: the *seedless* running example is a 2-vs-2 knife-edge tie
        // (µ[S] = 0), which the paper's Theorem 12 explicitly assumes
        // away — sampling cannot resolve it. We test the clear cases.
        let (g, b0, d, exact) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 1, 50_000, 29);
        let mut est = s.estimator();
        est.add_seed(2);
        // Seed {3}: all 4 users above -> 1.
        assert_eq!(estimated_copeland(&est, &exact, 0), 1.0);

        // A clearly losing target: everyone far below the competitor.
        let low_b0 = vec![0.05; 4];
        let s2 = SketchSet::generate(&g, &d, &low_b0, 1, 20_000, 59);
        assert_eq!(estimated_copeland(&s2.estimator(), &exact, 0), 0.0);
    }

    #[test]
    fn reset_estimator_matches_a_fresh_one() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 2_000, 31);
        let mut working = s.estimator();
        working.add_seed(1);
        s.reset_estimator(&mut working);
        assert!(working.seeds().is_empty());
        let fresh = s.estimator();
        for v in 0..4 {
            assert_eq!(
                working.estimate(v).map(f64::to_bits),
                fresh.estimate(v).map(f64::to_bits)
            );
        }
        assert_eq!(working.add_seed(2), s.estimator().add_seed(2));
    }

    #[test]
    fn from_parts_round_trips_a_generated_set() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 300, 5);
        let (arena, trunc, b0s, sums, counts) = owned_parts(&s);
        let back = SketchSet::from_parts(arena, trunc, b0s, 4, sums, counts).unwrap();
        assert_eq!(back.heap_bytes(), s.heap_bytes());
    }

    #[test]
    fn from_parts_rejects_counts_that_disagree_with_the_starts() {
        // A zero count for a sampled start would divide its deltas by
        // zero and silently drop the user from the rank greedy.
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 300, 5);
        let (arena, trunc, b0s, sums, mut counts) = owned_parts(&s);
        let v = counts.iter().position(|&c| c > 0).unwrap();
        counts[(v + 1) % 4] += counts[v];
        counts[v] = 0;
        assert_eq!(
            SketchSet::from_parts(arena, trunc, b0s, 4, sums, counts).unwrap_err(),
            "start counts disagree with the sketch starts"
        );
    }

    #[test]
    fn from_parts_rejects_out_of_range_initial_opinions() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 300, 5);
        for bad in [f64::NAN, -0.1, 1.5] {
            let (arena, trunc, mut b0s, sums, counts) = owned_parts(&s);
            b0s[1] = bad;
            assert_eq!(
                SketchSet::from_parts(arena, trunc, b0s, 4, sums, counts).unwrap_err(),
                "initial opinions must lie in [0, 1]",
                "b0 = {bad}"
            );
        }
    }

    #[test]
    fn heap_bytes_is_capacity_exact() {
        let (g, b0, d, _) = running_example();
        let s = SketchSet::generate(&g, &d, &b0, 2, 100, 37);
        // The accounting is the sum of its parts — arena, truncation, and
        // the three pooled per-node arrays (all built exact-size).
        let (arena, trunc, b0s, sums, counts) = s.parts();
        assert_eq!(
            s.heap_bytes(),
            arena.heap_bytes()
                + trunc.heap_bytes()
                + (b0s.len() + sums.len()) * std::mem::size_of::<f64>()
                + std::mem::size_of_val(counts)
        );
        // No θ-sized gain cache rides along: the footprint beyond arena +
        // truncation is exactly the 3 per-node arrays (20 bytes/node).
        assert_eq!(
            s.heap_bytes() - arena.heap_bytes() - trunc.heap_bytes(),
            4 * 20
        );
    }
}
