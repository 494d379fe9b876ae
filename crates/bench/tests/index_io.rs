//! Integration pin of the `--save-index`/`--load-index` bench path:
//!
//! * a saved sweep-k run and a loaded one select byte-identical seeds
//!   (equal digests) without re-simulating any walk arena or sketch set
//!   (`run_workload` itself errors if the `BuildCounters` delta of an
//!   all-loaded pass is nonzero);
//! * counter hygiene — two passes in one process account their
//!   query-phase `SolverCounters` as deltas, so the reported counters
//!   are bitwise equal run over run;
//! * a corrupted snapshot falls back to a fresh build (with a warning,
//!   not an error) and still produces the same digest.
//!
//! Everything lives in **one** test function: the build/solver counters
//! are process-global, so concurrent sibling tests would race them.

use vom_bench::bench_parallel::{workload_pass, Workload};
use vom_bench::ExpConfig;

#[test]
fn save_load_digests_match_counters_are_hygienic_and_corruption_falls_back() {
    // A reduced-scale configuration so the debug-mode sweep stays fast;
    // the digest is compared run-over-run, not against a committed pin.
    let base = ExpConfig {
        scale: 0.0005,
        ..ExpConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("vom-bench-index-io-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Build + save.
    let save_cfg = ExpConfig {
        save_index: Some(dir.clone()),
        ..base.clone()
    };
    let (digest_built, _) = workload_pass(&save_cfg, Workload::SweepK).expect("build+save pass");
    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .expect("snapshot dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "vpi"))
        .collect();
    assert!(!snapshots.is_empty(), "the save pass wrote snapshots");

    // Load: byte-identical selections, no artifact re-simulation (the
    // pass itself fails if the BuildCounters delta is nonzero).
    let load_cfg = ExpConfig {
        load_index: Some(dir.clone()),
        ..base.clone()
    };
    let (digest_loaded, counters_loaded) =
        workload_pass(&load_cfg, Workload::SweepK).expect("load pass");
    assert_eq!(digest_built, digest_loaded, "loaded indexes diverged");

    // Counter hygiene: delta accounting makes the reported query-phase
    // solver counters of identical runs bitwise equal, however many
    // runs (and however much global counter growth) preceded them.
    let (digest_again, counters_again) =
        workload_pass(&load_cfg, Workload::SweepK).expect("second load pass");
    assert_eq!(digest_loaded, digest_again);
    assert_eq!(
        counters_loaded, counters_again,
        "query-phase solver counters must not leak across runs"
    );

    // Corrupt one snapshot: the pass warns, rebuilds that index, and
    // still lands on the same digest.
    let victim = &snapshots[0];
    let mut bytes = std::fs::read(victim).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(victim, &bytes).expect("snapshot writable");
    let (digest_fallback, _) = workload_pass(&load_cfg, Workload::SweepK).expect("fallback pass");
    assert_eq!(
        digest_built, digest_fallback,
        "rebuild fallback diverged from the built selections"
    );

    std::fs::remove_dir_all(&dir).ok();
}
