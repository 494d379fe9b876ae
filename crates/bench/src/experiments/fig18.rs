//! Figure 18 (Appendix B): fraction of users still changing opinion at
//! each timestamp, for several tolerances ∆.

use crate::{ExpConfig, Result, Table};
use vom_datasets::{yelp_like, ReplicaParams};
use vom_diffusion::convergence::change_fraction_series;

/// The paper's motivation for a finite horizon: a significant fraction of
/// users keeps moving before t = 30, especially at small tolerances.
pub fn run(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    let ds = yelp_like(&params);
    let system = ds.instance.candidate(ds.default_target).system();
    let t_max = 30;
    let tolerances = [0.1, 0.5, 1.0, 5.0];
    let mut table = Table::new(
        "fig18",
        "% of nodes changing opinion from t-1 to t, per tolerance Δ (paper Figure 18)",
        &["t", "Δ=0.1%", "Δ=0.5%", "Δ=1%", "Δ=5%"],
    );
    let series: Vec<Vec<f64>> = tolerances
        .iter()
        .map(|&tol| change_fraction_series(system, &[], t_max, tol))
        .collect();
    for (t, row) in (1..=t_max).zip(0..t_max) {
        table.row(vec![
            t.to_string(),
            format!("{:.1}", 100.0 * series[0][row]),
            format!("{:.1}", 100.0 * series[1][row]),
            format!("{:.1}", 100.0 * series[2][row]),
            format!("{:.1}", 100.0 * series[3][row]),
        ]);
    }
    table.emit(&cfg.out_dir);
    Ok(())
}
