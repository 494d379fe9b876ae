//! Truncated-walk opinion estimates and greedy marginal-gain scans — the
//! one estimator behind both RW (§V, per-node walks) and RS (§VI,
//! sampled sketches).

use crate::arena::WalkArena;
use crate::truncation::Truncation;
use std::sync::Arc;
use vom_graph::Node;

/// One `(candidate seed, affected user, opinion delta)` triple produced by
/// [`WalkEstimator::pair_deltas`]: adding `seed` would raise the
/// estimated opinion of `user` by `delta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairDelta {
    /// Candidate seed node `w`.
    pub seed: Node,
    /// Start node `v` whose estimate would rise.
    pub user: Node,
    /// Increase in `b̂_qv` if `w` were added to the seed set.
    pub delta: f64,
}

/// Reusable buffers for per-candidate delta merging: walk-order
/// contributions are accumulated per user and then emitted in ascending
/// user order (a candidate's occurrences are not user-major on sampled
/// arenas, whose walks are not grouped by start node).
/// Keep one per greedy loop and pass it to every
/// [`WalkEstimator::for_candidate_deltas_cum`] call — the buffers are
/// epoch-reset, not reallocated.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    /// Per-user accumulated delta for the current candidate.
    acc: Vec<f64>,
    /// Epoch marks: `mark[v] == epoch` means `acc[v]` is live.
    mark: Vec<u32>,
    epoch: u32,
    /// Users touched by the current candidate, in first-visit order.
    dirty: Vec<Node>,
}

impl DeltaScratch {
    /// Starts a new candidate evaluation over `n` users.
    pub fn begin(&mut self, n: usize) {
        if self.mark.len() != n {
            self.acc.clear();
            self.acc.resize(n, 0.0);
            self.mark.clear();
            self.mark.resize(n, 0);
            self.epoch = 0;
        }
        self.dirty.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One lap of the u32 epoch: clear the marks and restart.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
    }

    /// Accumulates one walk's delta for `user` (walk order preserved
    /// within a user).
    #[inline]
    pub fn add(&mut self, user: Node, delta: f64) {
        let i = user as usize;
        if self.mark[i] == self.epoch {
            self.acc[i] += delta;
        } else {
            self.mark[i] = self.epoch;
            self.acc[i] = delta;
            self.dirty.push(user);
        }
    }

    /// Emits the merged `(user, delta)` pairs in ascending user order.
    pub fn drain_sorted(&mut self, mut visit: impl FnMut(Node, f64)) {
        self.dirty.sort_unstable();
        for &user in &self.dirty {
            visit(user, self.acc[user as usize]);
        }
    }
}

/// Pools every walk's end value under `trunc` into per-start `sums` and
/// `counts` (cleared and resized to `b0.len()` first), handing each
/// walk's `(start, end value)` to `each` on the way. One sequential pass
/// in walk order, so the float sums are schedule-independent (the
/// determinism contract — see `vendor/rayon`'s crate docs).
fn pool(
    arena: &WalkArena,
    trunc: &Truncation,
    b0: &[f64],
    sums: &mut Vec<f64>,
    counts: &mut Vec<u32>,
    mut each: impl FnMut(Node, f64),
) {
    sums.clear();
    sums.resize(b0.len(), 0.0);
    counts.clear();
    counts.resize(b0.len(), 0);
    for j in 0..arena.num_walks() {
        let (start, end) = (arena.start(j), trunc.end_value(arena, b0, j));
        sums[start as usize] += end;
        counts[start as usize] += 1;
        each(start, end);
    }
}

/// The seedless pooled state of `arena` under target opinions `b0`:
/// per start node, the sum of its walks' end values and their number —
/// the arrays a sketch set persists. A [`WalkEstimator`] derives the
/// same bits in its own pass.
pub fn pooled_end_values(
    arena: &WalkArena,
    trunc: &Truncation,
    b0: &[f64],
) -> (Vec<f64>, Vec<u32>) {
    let (mut sums, mut counts) = (Vec::new(), Vec::new());
    pool(arena, trunc, b0, &mut sums, &mut counts, |_, _| {});
    (sums, counts)
}

/// Incremental estimator of `b̂_qv^{(t)}[S]` over a walk arena, with the
/// marginal-gain scans the greedy selectors consume (Algorithms 4–5).
///
/// Every walk is truncated at its first seed (Theorem 9) and all walks
/// sharing a start are **pooled**: the estimate for `v` is the mean end
/// value of the walks starting at `v` (Theorems 9–10; §VI-B footnote 6
/// for sketches). The arena's layout decides the rest:
///
/// * **grouped** (per-node RW arenas, [`WalkArena::has_groups`]): every
///   user counts once in score estimates, a walk's cumulative weight is
///   `1/λ_v`, and a user with `λ_v = 0` falls back to its initial
///   opinion;
/// * **sampled** (RS sketches, starts drawn with replacement): user `v`
///   stands for `count_v · n/θ` users, a walk's cumulative weight is
///   `n/θ` (Eq. 35), and a never-sampled user has no estimate.
///
/// The per-walk caches (gain `1 − end_value`, start node) are query-local
/// state, kept next to the truncation so the per-candidate occurrence
/// scans read two flat arrays instead of chasing the arena (reading
/// starts through the arena measured ~15% slower RW plurality queries).
#[derive(Debug, Clone)]
pub struct WalkEstimator {
    arena: Arc<WalkArena>,
    trunc: Truncation,
    b0: Vec<f64>,
    /// Per start node: sum of current end values over its walks.
    sums: Vec<f64>,
    /// Per start node: number of walks starting there (`λ_v`).
    counts: Vec<u32>,
    /// Walk index -> current gain `1 − end_value`. `0.0` once the walk
    /// ends at a seed (it then never contributes again); maintained by
    /// `add_seed_into`.
    walk_gain: Vec<f64>,
    /// Walk index -> start node.
    walk_start: Vec<Node>,
}

impl WalkEstimator {
    /// Builds a seedless estimator over `arena` (grouped or sampled) for
    /// the target candidate's initial opinions `b0` (one per user).
    ///
    /// # Panics
    /// If a grouped arena's group count differs from `b0.len()`.
    pub fn new(arena: Arc<WalkArena>, b0: &[f64]) -> Self {
        let trunc = Truncation::new(&arena, b0.len());
        Self::with_truncation(arena, trunc, b0)
    }

    /// An estimator over `arena` starting from an already-built truncation
    /// state (a sketch set caches its seedless one, so queries skip
    /// rebuilding the occurrence index). Sums, counts and the per-walk
    /// caches are derived from `trunc` here.
    ///
    /// # Panics
    /// If a grouped arena's group count differs from `b0.len()`.
    pub fn with_truncation(arena: Arc<WalkArena>, trunc: Truncation, b0: &[f64]) -> Self {
        if let Some(groups) = arena.num_groups() {
            assert_eq!(groups, b0.len(), "b0 length must equal node count");
        }
        let mut est = WalkEstimator {
            arena,
            trunc,
            b0: b0.to_vec(),
            sums: Vec::new(),
            counts: Vec::new(),
            walk_gain: Vec::new(),
            walk_start: Vec::new(),
        };
        est.repool();
        est
    }

    /// Resets this estimator to `arena` under truncation state `trunc`
    /// and opinions `b0` — what [`WalkEstimator::with_truncation`] builds,
    /// re-filling the existing buffers instead of allocating (a query
    /// session reuses one working estimator across queries).
    pub fn reset(&mut self, arena: &Arc<WalkArena>, trunc: &Truncation, b0: &[f64]) {
        self.arena = Arc::clone(arena);
        self.trunc.clone_from(trunc);
        self.b0.clear();
        self.b0.extend_from_slice(b0);
        self.repool();
    }

    /// Re-derives sums, counts and the per-walk caches from the current
    /// truncation in one pass.
    fn repool(&mut self) {
        let (walk_gain, walk_start) = (&mut self.walk_gain, &mut self.walk_start);
        walk_gain.clear();
        walk_start.clear();
        // Exact-size, so a fresh build never holds a doubled buffer.
        walk_gain.reserve_exact(self.arena.num_walks());
        walk_start.reserve_exact(self.arena.num_walks());
        pool(
            &self.arena,
            &self.trunc,
            &self.b0,
            &mut self.sums,
            &mut self.counts,
            |start, end| {
                walk_gain.push(1.0 - end);
                walk_start.push(start);
            },
        );
    }

    /// Number of users.
    pub fn num_nodes(&self) -> usize {
        self.b0.len()
    }

    /// The walks this estimator truncates (its layout decides the
    /// weighting — see the type docs).
    pub fn arena(&self) -> &WalkArena {
        &self.arena
    }

    /// Seeds added so far, in insertion order.
    pub fn seeds(&self) -> &[Node] {
        self.trunc.seeds()
    }

    /// Whether `v` is a seed.
    pub fn is_seed(&self, v: Node) -> bool {
        self.trunc.is_seed(v)
    }

    /// Estimated opinion `b̂_qv^{(t)}[S]` for the current seed set.
    ///
    /// Seeds estimate exactly 1 (their walks truncate at position 0). A
    /// user no walk starts at falls back to its initial opinion on a
    /// grouped arena (per-node λ schedules that skip nodes) and has no
    /// estimate (`None`) on a sampled one.
    #[inline]
    pub fn estimate(&self, v: Node) -> Option<f64> {
        if self.trunc.is_seed(v) {
            return Some(1.0);
        }
        match self.counts[v as usize] {
            0 if self.arena.has_groups() => Some(self.b0[v as usize]),
            0 => None,
            c => Some(self.sums[v as usize] / c as f64),
        }
    }

    /// How many samples user `v` stands for: 1 on a grouped arena (every
    /// user counts once), `count_v` — the number of sketches started at
    /// `v` — on a sampled one. An integer, so majorities over users
    /// (Eq. 47) are decided exactly.
    pub fn votes(&self, v: Node) -> u32 {
        if self.arena.has_groups() {
            1
        } else {
            self.counts[v as usize]
        }
    }

    /// The weight user `v` carries in estimated scores: 1 on a grouped
    /// arena (every user counts once); on a sampled one `v` was drawn
    /// `count_v` times out of θ, each draw standing for `n/θ` users.
    pub fn user_weight(&self, v: Node) -> f64 {
        if self.arena.has_groups() {
            1.0
        } else {
            self.counts[v as usize] as f64 * self.num_nodes() as f64 / self.arena.num_walks() as f64
        }
    }

    /// Estimated cumulative score: `Σ_v b̂_qv^{(t)}[S]` on a grouped
    /// arena, `(n/θ) Σ_j b̂_{qv_j}[S]` (Eq. 35) on a sampled one.
    pub fn estimated_cumulative(&self) -> f64 {
        if self.arena.has_groups() {
            (0..self.num_nodes() as Node)
                .map(|v| {
                    self.estimate(v)
                        .expect("grouped arenas estimate every user")
                })
                .sum()
        } else {
            // Σ_j over samples of the pooled estimate equals Σ_v sum_v,
            // so the per-start sum is identical and cheaper.
            let sum: f64 = self.sums.iter().sum();
            sum * self.num_nodes() as f64 / self.arena.num_walks() as f64
        }
    }

    /// The weight of a walk-level gain in the estimated cumulative score
    /// on a sampled arena: the sample weight `n/θ` (Eq. 35). `None` on a
    /// grouped arena, where a walk's gain `g` counts toward its start's
    /// pooled mean instead (`g/λ_v`).
    #[inline]
    fn sample_scale(&self) -> Option<f64> {
        (!self.arena.has_groups()).then(|| self.num_nodes() as f64 / self.arena.num_walks() as f64)
    }

    /// Adds `u` to the seed set, truncating walks and updating sums.
    /// Returns the start nodes whose estimates changed (sorted,
    /// deduplicated), which the γ* heuristic and rank-based gain scans
    /// consume.
    pub fn add_seed(&mut self, u: Node) -> Vec<Node> {
        let mut touched = Vec::new();
        self.add_seed_into(u, &mut touched);
        touched
    }

    /// [`WalkEstimator::add_seed`] writing the changed-users report into
    /// a caller-owned buffer (cleared first), so a greedy loop adding one
    /// seed per iteration reuses one allocation.
    pub fn add_seed_into(&mut self, u: Node, touched: &mut Vec<Node>) {
        touched.clear();
        let arena = &self.arena;
        let b0 = &self.b0;
        let sums = &mut self.sums;
        let walk_gain = &mut self.walk_gain;
        let walk_start = &self.walk_start;
        self.trunc.add_seed(arena, u, |walk, old_end| {
            let start = walk_start[walk];
            sums[start as usize] += 1.0 - b0[old_end as usize];
            // The walk now ends at a seed: value 1, gain gone for good.
            walk_gain[walk] = 0.0;
            touched.push(start);
        });
        touched.sort_unstable();
        touched.dedup();
    }

    /// For every candidate seed `w`, the increase in the **estimated
    /// cumulative score** if `w` were added — restricted to walks whose
    /// start is in `mask` when one is given (the sandwich lower bound of
    /// Definition 3). One scan over all live walk prefixes (§V-B's "one
    /// scan over all walks"); seeds report 0.
    pub fn cumulative_gains(&self, mask: Option<&[bool]>) -> Vec<f64> {
        // One loop per weighting and mask case: a per-visit branch on
        // either measured ~2x slower scans.
        let counts = &self.counts;
        match self.sample_scale() {
            None => self.weighted_gains(mask, |start, g| g / counts[start as usize] as f64),
            Some(scale) => self.weighted_gains(mask, |_, g| g * scale),
        }
    }

    /// [`Self::cumulative_gains`] under one concrete weighting `term`.
    fn weighted_gains(&self, mask: Option<&[bool]>, term: impl Fn(Node, f64) -> f64) -> Vec<f64> {
        let mut gains = vec![0.0f64; self.num_nodes()];
        match mask {
            None => self.scan_prefixes(|w, start, g| gains[w as usize] += term(start, g)),
            Some(mask) => self.scan_prefixes(|w, start, g| {
                if mask[start as usize] {
                    gains[w as usize] += term(start, g);
                }
            }),
        }
        gains
    }

    /// The marginal estimated-cumulative gain of one candidate seed `w`
    /// (restricted to `mask` when given) — bit-identical to
    /// `cumulative_gains(mask)[w]`, computed from `w`'s occurrence list
    /// alone. `0.0` for seeds.
    pub fn cumulative_gain_of(&self, w: Node, mask: Option<&[bool]>) -> f64 {
        if self.trunc.is_seed(w) {
            return 0.0;
        }
        let counts = &self.counts;
        match self.sample_scale() {
            None => self.weighted_gain_of(w, mask, |start, g| g / counts[start as usize] as f64),
            Some(scale) => self.weighted_gain_of(w, mask, |_, g| g * scale),
        }
    }

    /// [`Self::cumulative_gain_of`] under one concrete weighting `term`.
    fn weighted_gain_of(
        &self,
        w: Node,
        mask: Option<&[bool]>,
        term: impl Fn(Node, f64) -> f64,
    ) -> f64 {
        let mut gain = 0.0;
        match mask {
            None => self.visit_candidate_walks(w, |start, g| gain += term(start, g)),
            Some(mask) => self.visit_candidate_walks(w, |start, g| {
                if mask[start as usize] {
                    gain += term(start, g);
                }
            }),
        }
        gain
    }

    /// Per-(seed, user) estimate deltas, sorted by seed then user:
    /// everything the rank-based scores need to evaluate marginal gains
    /// exactly on the estimates. Size is bounded by the total live prefix
    /// length.
    pub fn pair_deltas(&self) -> Vec<PairDelta> {
        let mut deltas = Vec::new();
        self.scan_prefixes(|w, start, g| {
            deltas.push(PairDelta {
                seed: w,
                user: start,
                delta: g / self.counts[start as usize] as f64,
            });
        });
        // Group by seed, then merge duplicate (seed, user) pairs from
        // different walks of the same start. The sort is stable, so each
        // pair's terms add in walk order — the order the per-candidate
        // scan adds them in.
        deltas.sort_by_key(|d| (d.seed, d.user));
        deltas.dedup_by(|b, a| {
            if a.seed == b.seed && a.user == b.user {
                a.delta += b.delta;
                true
            } else {
                false
            }
        });
        deltas
    }

    /// Visits the merged per-user estimate deltas of one candidate seed
    /// `w` — `(user, Δb̂_qv)` pairs in ascending user order, exactly the
    /// `seed == w` run of [`WalkEstimator::pair_deltas`] — without
    /// scanning any other candidate's walks, and returns `w`'s
    /// estimated-cumulative gain (bit-identical to
    /// [`WalkEstimator::cumulative_gain_of`]) from the same pass: the
    /// rank greedy's primary gain and its tie-break in one scan. The
    /// merge goes through the caller's reusable [`DeltaScratch`].
    pub fn for_candidate_deltas_cum<F: FnMut(Node, f64)>(
        &self,
        w: Node,
        scratch: &mut DeltaScratch,
        mut visit: F,
    ) -> f64 {
        if self.trunc.is_seed(w) {
            return 0.0;
        }
        let counts = &self.counts;
        let scale = self.sample_scale();
        let mut cum = 0.0;
        scratch.begin(self.num_nodes());
        self.visit_candidate_walks(w, |start, g| {
            let delta = g / counts[start as usize] as f64;
            cum += match scale {
                Some(scale) => g * scale,
                None => delta,
            };
            scratch.add(start, delta);
        });
        scratch.drain_sorted(&mut visit);
        cum
    }

    /// Visits `(start, walk-level gain)` for every **live** walk whose
    /// live prefix contains candidate `w`, in ascending walk order — the
    /// occurrence-index dual of [`Self::scan_prefixes`]: one candidate in
    /// `O(occurrences of w)` instead of one pass over every prefix. The
    /// visit set and order match the scan exactly (first occurrences
    /// only, dead walks skipped), so sums taken here are bit-identical to
    /// the scan-based gains.
    #[inline]
    fn visit_candidate_walks<F: FnMut(Node, f64)>(&self, w: Node, mut visit: F) {
        debug_assert!(!self.trunc.is_seed(w));
        let (walks, positions) = self.trunc.first_occurrences(w);
        for (&walk, &pos) in walks.iter().zip(positions) {
            let walk = walk as usize;
            let gain = self.walk_gain[walk];
            if gain <= 0.0 {
                continue; // walk already ends at a seed (or at value 1)
            }
            if pos as usize > self.trunc.end_pos(walk) {
                continue; // beyond the live prefix
            }
            visit(self.walk_start[walk], gain);
        }
    }

    /// Visits `(candidate seed w, walk start, walk-level gain)` for the
    /// first occurrence of every non-seed node `w` in every live prefix,
    /// where the walk-level gain is `1 − end_value` (what truncating that
    /// walk at `w` would change its contribution by).
    fn scan_prefixes<F: FnMut(Node, Node, f64)>(&self, mut visit: F) {
        for j in 0..self.arena.num_walks() {
            let gain = self.walk_gain[j];
            if gain <= 0.0 {
                continue;
            }
            let start = self.walk_start[j];
            let prefix = self.trunc.prefix(&self.arena, j);
            for (pos, &w) in prefix.iter().enumerate() {
                // First occurrence only: truncation cuts at the earliest.
                if prefix[..pos].contains(&w) || self.trunc.is_seed(w) {
                    continue;
                }
                visit(w, start, gain);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Lambda, WalkGenerator};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vom_graph::builder::graph_from_edges;
    use vom_graph::SocialGraph;

    fn running_example() -> (SocialGraph, Vec<f64>, Vec<f64>) {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let b0 = vec![0.40, 0.80, 0.60, 0.90];
        let d = vec![0.0, 0.0, 0.5, 0.5];
        (g, b0, d)
    }

    /// A grouped (per-node) estimator over the running example.
    fn per_node(t: usize, lambda: usize, seed: u64) -> WalkEstimator {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, t);
        let arena = gen.generate_per_node(&Lambda::Uniform(lambda), seed);
        WalkEstimator::new(Arc::new(arena), &b0)
    }

    /// A sampled estimator over the running example: `theta` starts drawn
    /// uniformly with replacement.
    fn sampled(t: usize, theta: usize, seed: u64) -> WalkEstimator {
        let (g, b0, d) = running_example();
        let mut rng = SmallRng::seed_from_u64(seed);
        let starts: Vec<Node> = (0..theta).map(|_| rng.gen_range(0..4) as Node).collect();
        let arena = WalkGenerator::new(&g, &d, t).generate_for_starts(&starts, seed + 1);
        WalkEstimator::new(Arc::new(arena), &b0)
    }

    fn estimates(est: &WalkEstimator) -> Vec<f64> {
        (0..4).map(|v| est.estimate(v).unwrap()).collect()
    }

    #[test]
    fn estimates_converge_to_exact_opinions() {
        // Exact t=1 opinions: 0.40, 0.80, 0.60, 0.75.
        let exact = [0.40, 0.80, 0.60, 0.75];
        for (est, tol) in [
            (per_node(1, 60_000, 17), 0.01),
            (sampled(1, 100_000, 43), 0.02),
        ] {
            for (v, (e, x)) in estimates(&est).iter().zip(exact).enumerate() {
                assert!((e - x).abs() < tol, "node {v}: {e} vs {x}");
            }
        }
    }

    #[test]
    fn seeded_estimates_converge_to_exact_seeded_opinions() {
        // Exact seeded opinions (Table I row {3}): 0.40, 0.80, 1.00, 0.95.
        let exact = [0.40, 0.80, 1.00, 0.95];
        for (mut est, tol) in [
            (per_node(1, 60_000, 23), 0.01),
            (sampled(1, 200_000, 13), 0.02),
        ] {
            let touched = est.add_seed(2);
            // Seeding node 2 influences node 3's estimate (walks 3 -> 2).
            assert!(touched.contains(&3));
            for (v, (e, x)) in estimates(&est).iter().zip(exact).enumerate() {
                assert!((e - x).abs() < tol, "node {v}: {e} vs {x}");
            }
            assert_eq!(est.estimate(2), Some(1.0), "seed estimates exactly 1");
            assert_eq!(est.seeds(), &[2]);
            // Table I row {3}: cumulative 3.15.
            let cum = est.estimated_cumulative();
            assert!((cum - 3.15).abs() < 0.05, "cumulative {cum}");
        }
    }

    #[test]
    fn sample_weights_sum_to_n() {
        let est = sampled(2, 1000, 41);
        let total: u32 = est.counts.iter().sum();
        assert_eq!(total, 1000);
        let weight: f64 = (0..4).map(|v| est.user_weight(v)).sum();
        assert!((weight - 4.0).abs() < 1e-9, "weights sum to n");
        assert_eq!((0..4).map(|v| est.votes(v)).sum::<u32>(), 1000);
        assert_eq!(per_node(1, 10, 3).user_weight(0), 1.0);
        assert_eq!(per_node(1, 10, 3).votes(0), 1);
    }

    #[test]
    fn unsampled_users_have_no_estimate_but_unwalked_nodes_fall_back() {
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 1);
        let sketch = gen.generate_for_starts(&[3, 3, 2], 5);
        let est = WalkEstimator::new(Arc::new(sketch), &b0);
        assert_eq!(est.estimate(0), None);
        assert!(est.estimate(3).is_some());
        let skip = gen.generate_per_node(&Lambda::PerNode(vec![0, 5, 5, 5]), 7);
        let est = WalkEstimator::new(Arc::new(skip), &b0);
        assert_eq!(est.estimate(0), Some(0.40), "λ_v = 0 falls back to b0");
    }

    #[test]
    fn cumulative_gains_match_realized_gains() {
        for est in [per_node(2, 500, 31), sampled(2, 5_000, 17)] {
            let gains = est.cumulative_gains(None);
            let base = est.estimated_cumulative();
            for w in 0..4u32 {
                let mut clone = est.clone();
                clone.add_seed(w);
                let realized = clone.estimated_cumulative() - base;
                assert!(
                    (gains[w as usize] - realized).abs() < 1e-9,
                    "node {w}: predicted {} vs realized {realized}",
                    gains[w as usize]
                );
            }
        }
    }

    #[test]
    fn pair_deltas_predict_estimate_changes() {
        for est in [per_node(3, 300, 41), sampled(2, 2_000, 31)] {
            let deltas = est.pair_deltas();
            for pair in deltas.windows(2) {
                assert!(
                    (pair[0].seed, pair[0].user) < (pair[1].seed, pair[1].user),
                    "must be strictly sorted (deduplicated)"
                );
            }
            assert!(deltas.iter().all(|d| d.delta > 0.0));
            let mut seeded = est.clone();
            seeded.add_seed(2);
            let mut predicted = estimates(&est);
            for pd in deltas.iter().filter(|d| d.seed == 2) {
                predicted[pd.user as usize] += pd.delta;
            }
            for v in [0u32, 1, 3] {
                let realized = seeded.estimate(v).unwrap();
                assert!(
                    (predicted[v as usize] - realized).abs() < 1e-9,
                    "node {v}: predicted {} vs realized {realized}",
                    predicted[v as usize]
                );
            }
        }
    }

    #[test]
    fn gains_of_existing_seeds_are_zero() {
        let mut est = per_node(2, 200, 37);
        est.add_seed(2);
        assert_eq!(est.cumulative_gains(None)[2], 0.0);
        assert_eq!(est.cumulative_gain_of(2, None), 0.0);
    }

    #[test]
    fn add_seed_into_reuses_the_buffer() {
        let mut est = per_node(1, 500, 59);
        let mut buf = vec![99; 8]; // stale content must be cleared
        est.add_seed_into(2, &mut buf);
        let mut fresh = per_node(1, 500, 59);
        assert_eq!(buf, fresh.add_seed(2));
    }

    #[test]
    fn reset_restores_the_seedless_state() {
        for est in [per_node(2, 300, 7), sampled(2, 3_000, 19)] {
            let (sums, counts) = pooled_end_values(&est.arena, &est.trunc, &est.b0);
            assert_eq!(counts, est.counts);
            assert_eq!(sums, est.sums);
            let mut working = est.clone();
            working.add_seed(1);
            working.reset(&est.arena, &est.trunc, &est.b0);
            assert!(working.seeds().is_empty());
            assert_eq!(working.walk_gain, est.walk_gain);
            assert_eq!(working.walk_start, est.walk_start);
            assert_eq!(working.sums, est.sums);
            assert_eq!(working.counts, est.counts);
        }
    }

    #[test]
    fn truncation_equals_direct_generation_in_expectation() {
        // Theorem 9: post-generation truncation and Direct Generation
        // estimate the same quantity. Statistical check on node 3.
        let (g, b0, d) = running_example();
        let gen = WalkGenerator::new(&g, &d, 3);
        let seeds = [2 as Node];
        let lambda = Lambda::Uniform(40_000);

        let arena_trunc = gen.generate_per_node(&lambda, 51);
        let mut est = WalkEstimator::new(Arc::new(arena_trunc), &b0);
        est.add_seed(2);
        let trunc_estimate = est.estimate(3).unwrap();

        let arena_direct = gen.generate_direct(&lambda, &seeds, 53);
        // Direct walks already stop at seeds; value of end node e is 1 if
        // e is a seed else b0[e].
        let range = arena_direct.group_range(3).unwrap();
        let mut sum = 0.0;
        let count = range.len();
        for i in range {
            let w = arena_direct.walk(i);
            let e = w[w.len() - 1];
            sum += if seeds.contains(&e) {
                1.0
            } else {
                b0[e as usize]
            };
        }
        let direct_estimate = sum / count as f64;
        assert!(
            (trunc_estimate - direct_estimate).abs() < 0.01,
            "{trunc_estimate} vs {direct_estimate}"
        );
    }

    /// Every incremental answer against its full-scan definition, bit for
    /// bit, after each seed of the sequence.
    fn check_incremental_state(est: &WalkEstimator, mask: &[bool]) {
        for j in 0..est.arena.num_walks() {
            let end = est.trunc.end_value(&est.arena, &est.b0, j);
            assert_eq!(
                est.walk_gain[j].to_bits(),
                (1.0 - end).to_bits(),
                "walk {}",
                j
            );
        }
        let gains = est.cumulative_gains(None);
        let masked = est.cumulative_gains(Some(mask));
        let pairs = est.pair_deltas();
        let mut scratch = DeltaScratch::default();
        for w in 0..est.num_nodes() as Node {
            if est.is_seed(w) {
                continue;
            }
            let cum = est.cumulative_gain_of(w, None);
            assert_eq!(cum.to_bits(), gains[w as usize].to_bits(), "node {}", w);
            assert_eq!(
                est.cumulative_gain_of(w, Some(mask)).to_bits(),
                masked[w as usize].to_bits(),
                "node {} (masked)",
                w
            );
            let mut got: Vec<(Node, u64)> = Vec::new();
            let got_cum = est.for_candidate_deltas_cum(w, &mut scratch, |user, delta| {
                got.push((user, delta.to_bits()))
            });
            let want: Vec<(Node, u64)> = pairs
                .iter()
                .filter(|d| d.seed == w)
                .map(|d| (d.user, d.delta.to_bits()))
                .collect();
            assert_eq!(got, want, "node {} deltas", w);
            assert_eq!(got_cum.to_bits(), cum.to_bits(), "node {} cumulative", w);
        }
    }

    /// A random small instance: graph, opinions, stubbornness.
    fn arb_instance() -> impl Strategy<Value = (SocialGraph, Vec<f64>, Vec<f64>)> {
        (3usize..12).prop_flat_map(|n| {
            let edges =
                proptest::collection::vec((0..n as Node, 0..n as Node, 0.1f64..5.0), 1..(3 * n));
            let b0 = proptest::collection::vec(0.0f64..=1.0, n);
            let d = proptest::collection::vec(0.0f64..=1.0, n);
            (edges, b0, d).prop_map(move |(edges, b0, d)| {
                (graph_from_edges(n, &edges).expect("valid edges"), b0, d)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn incremental_scans_match_full_scans_on_both_layouts(
            (g, b0, d) in arb_instance(),
            t in 0usize..6,
            lambda in 1usize..6,
            seeds in proptest::collection::vec(0u32..64, 1..6),
            mask_bits in 0u64..4096,
            rng_seed in 0u64..1000,
        ) {
            let n = g.num_nodes();
            let gen = WalkGenerator::new(&g, &d, t);
            let mut rng = SmallRng::seed_from_u64(rng_seed);
            let starts: Vec<Node> =
                (0..n * lambda).map(|_| rng.gen_range(0..n) as Node).collect();
            let grouped = gen.generate_per_node(&Lambda::Uniform(lambda), rng_seed);
            let sampled = gen.generate_for_starts(&starts, rng_seed);
            let mask: Vec<bool> = (0..n).map(|v| mask_bits >> (v % 12) & 1 == 1).collect();
            for arena in [grouped, sampled] {
                let mut est = WalkEstimator::new(Arc::new(arena), &b0);
                check_incremental_state(&est, &mask);
                for &s in &seeds {
                    est.add_seed(s % n as Node);
                    check_incremental_state(&est, &mask);
                }
            }
        }
    }
}
