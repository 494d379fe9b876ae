//! The correctness gate, run outside every timed section.

use crate::trace::Tracer;
use crate::workloads::{Rep, Workload, HORIZON};
use vom_core::Problem;
use vom_graph::Node;

/// The part of an answer later reps must reproduce exactly: the seeds
/// and the bits of the reported exact score.
pub type Fingerprint = Option<(Vec<Node>, u64)>;

pub fn fingerprints(rep: &Rep) -> Vec<Fingerprint> {
    rep.answers
        .iter()
        .map(|a| {
            a.outcome
                .as_ref()
                .ok()
                .map(|r| (r.seeds.clone(), r.exact_score.to_bits()))
        })
        .collect()
}

/// Full check of every answer: it succeeded, holds `k` distinct
/// in-range seeds, and its reported exact score equals an independent
/// `Problem::exact_score` recomputation bit for bit. Returns one message
/// per failed answer.
pub fn check_answers(rep: &Rep, w: Workload, tr: &Tracer) -> Vec<String> {
    let mut failures = Vec::new();
    for (qi, a) in rep.answers.iter().enumerate() {
        let res = match &a.outcome {
            Ok(res) => res,
            Err(e) => {
                failures.push(format!("{}: {e}", a.label));
                continue;
            }
        };
        let input = &rep.inputs[a.input];
        let n = input.instance.num_nodes();
        let mut distinct = res.seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if res.seeds.len() != a.k || distinct.len() != a.k {
            failures.push(format!(
                "{}: {} seeds ({} distinct), expected {}",
                a.label,
                res.seeds.len(),
                distinct.len(),
                a.k
            ));
            continue;
        }
        if let Some(bad) = res.seeds.iter().find(|&&s| s as usize >= n) {
            failures.push(format!("{}: seed {bad} out of range (n = {n})", a.label));
            continue;
        }
        let exact = match Problem::new(&input.instance, input.target, a.k, HORIZON, w.rule()) {
            Ok(problem) => tr.span("core.exact_score", Some(qi), || {
                problem.exact_score(&res.seeds)
            }),
            Err(e) => {
                failures.push(format!("{}: {e}", a.label));
                continue;
            }
        };
        if exact.to_bits() != res.exact_score.to_bits() {
            failures.push(format!(
                "{}: reported exact score {:e} != recomputed {exact:e}",
                a.label, res.exact_score
            ));
        }
    }
    failures
}

/// Cheap check of a later rep: every answer must repeat the checked
/// first rep's seeds and score bits.
pub fn check_repeat(rep: &Rep, reference: &[Fingerprint]) -> Vec<String> {
    let now = fingerprints(rep);
    if now.len() != reference.len() {
        return vec![format!(
            "rep answered {} queries, the first rep {}",
            now.len(),
            reference.len()
        )];
    }
    rep.answers
        .iter()
        .zip(now.iter().zip(reference))
        .filter(|(_, (a, b))| a.is_none() || a != b)
        .map(|(a, _)| match &a.outcome {
            Err(e) => format!("{}: {e}", a.label),
            Ok(_) => format!("{}: differs from the first rep", a.label),
        })
        .collect()
}
