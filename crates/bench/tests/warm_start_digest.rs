//! End-to-end pin of the warm-start equivalence contract: the `sweep-k`
//! workload must select byte-identical seeds whether the DM greedy runs
//! cold-only or warm-started, at any pool width — asserted against the
//! digest committed in `BENCH_parallel.json`.
//!
//! The test replays the exact bench configuration (default scale/seed,
//! quick mode), so the digest below must match the `sweep-k` entries of
//! the committed trajectory file; refresh both together when the
//! workload changes.
//!
//! Marked `#[ignore]`: one full sweep-k pass per (mode, width) is too
//! slow for the debug-mode test sweep. CI runs it explicitly in release
//! (`cargo test -p vom-bench --release --test warm_start_digest -- --ignored`).

use vom_bench::bench_parallel::{workload_pass, Workload};
use vom_bench::ExpConfig;
use vom_diffusion::set_warm_start_enabled;

/// The `sweep-k` selection digest committed in `BENCH_parallel.json`.
const COMMITTED_SWEEP_K_DIGEST: &str = "8c41fa6c26e3b30e";

#[test]
#[ignore = "release-mode digest pin; run explicitly with -- --ignored"]
fn sweep_k_digest_is_identical_cold_vs_warm_across_widths() {
    let cfg = ExpConfig::default();
    let entry_override = rayon::thread_override();
    let mut digests: Vec<(String, String)> = Vec::new();
    for (warm, threads) in [(true, 1), (true, 2), (true, 8), (false, 1)] {
        set_warm_start_enabled(warm);
        rayon::set_thread_override(Some(threads));
        let (digest, _) = workload_pass(&cfg, Workload::SweepK).expect("sweep-k pass runs");
        digests.push((format!("warm={warm}/threads={threads}"), digest));
    }
    set_warm_start_enabled(true);
    rayon::set_thread_override(entry_override);
    for (label, digest) in &digests {
        assert_eq!(
            digest, COMMITTED_SWEEP_K_DIGEST,
            "{label}: selections diverged from the committed sweep-k digest"
        );
    }
}
