//! End-to-end pin of the RW/RS selections: the `fig6-quick` workload
//! (RW and RS plurality sweeps with the sandwich) and the
//! `query-throughput` workload (an RS service batch) must select
//! byte-identical seeds at pool widths 1 and 2, equal to the digests
//! committed in `BENCH_parallel.json`. Together with the `sweep-k` pin
//! in `warm_start_digest.rs` this covers every workload of that file.
//!
//! The test replays the exact bench configuration (default scale/seed,
//! quick mode), so the digests below must match the committed
//! trajectory file; refresh both together when a workload changes.
//!
//! Marked `#[ignore]`: a full fig6-quick pass per width is too slow for
//! the debug-mode test sweep. CI runs it explicitly in release
//! (`cargo test -p vom-bench --release --test rw_rs_digest -- --ignored`).

use vom_bench::bench_parallel::{workload_pass, Workload};
use vom_bench::ExpConfig;

/// The RW/RS selection digests committed in `BENCH_parallel.json`.
const COMMITTED_DIGESTS: [(Workload, &str); 2] = [
    (Workload::Fig6Quick, "13af84e738d01d92"),
    (Workload::QueryThroughput, "528e49621bf186f3"),
];

#[test]
#[ignore = "release-mode digest pin; run explicitly with -- --ignored"]
fn rw_rs_digests_are_identical_across_widths() {
    let cfg = ExpConfig::default();
    let entry_override = rayon::thread_override();
    let mut digests = Vec::new();
    for (workload, pin) in COMMITTED_DIGESTS {
        for threads in [1, 2] {
            rayon::set_thread_override(Some(threads));
            let (digest, _) = workload_pass(&cfg, workload).expect("workload pass runs");
            digests.push((workload.name(), threads, digest, pin));
        }
    }
    rayon::set_thread_override(entry_override);
    for (name, threads, digest, pin) in &digests {
        assert_eq!(
            digest, pin,
            "{name} at {threads} threads: selections diverged from the committed digest"
        );
    }
}
