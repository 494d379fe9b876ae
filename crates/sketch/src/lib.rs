#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-sketch
//!
//! Sketch-based opinion and score estimation (§VI of the paper).
//!
//! Instead of `λ_v` walks from *every* node (the RW method), a sketch set
//! holds `θ` reverse walks from **uniformly sampled** start nodes.
//! Averaging end-node initial opinions over the sketch set estimates the
//! voting scores directly:
//!
//! * cumulative — `F̂ = (n/θ) Σ_j b̂_{qv_j}[S]` (Eq. 35), with the
//!   Theorem 13 sample-complexity bound and an IMM-style statistical
//!   lower-bound test for `OPT` ([`opt_bound`]);
//! * positional-p-approval — Eq. 42 ([`estimated_positional`]);
//! * Copeland — Eq. 47 via the sampled majority relation `≻_M̂`
//!   ([`estimated_copeland`]);
//! * heuristic θ search for the non-submodular scores (§VI-E,
//!   [`theta::converge_theta`]).
//!
//! A [`SketchSet`] is the immutable sampled-walk data an RS index caches
//! and persists; queries run on a working [`vom_walks::WalkEstimator`]
//! (the same truncated-walk estimator RW uses — sketches are the same
//! reverse walks with sampled starts) reset from it per query. Like the
//! paper's, sketches are plain walks — "simpler and less memory
//! consuming" than the RR-set trees of classic IM.
//!
//! # Example
//!
//! ```
//! use vom_graph::builder::graph_from_edges;
//! use vom_sketch::SketchSet;
//!
//! let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?;
//! let sk = SketchSet::generate(
//!     &g,
//!     &[0.0, 0.0, 0.5, 0.5],     // stubbornness
//!     &[0.40, 0.80, 0.60, 0.90], // initial opinions about the target
//!     1,                          // horizon t
//!     8192,                       // θ sketches
//!     3,                          // RNG seed
//! );
//! assert_eq!(sk.theta(), 8192);
//! let mut est = sk.estimator();
//! // Eq. 35 estimate of the seedless cumulative score (exact: 2.55).
//! assert!((est.estimated_cumulative() - 2.55).abs() < 0.1);
//! est.add_seed(2); // truncation, not regeneration (exact: 3.15)
//! assert!((est.estimated_cumulative() - 3.15).abs() < 0.1);
//! # Ok::<(), vom_graph::GraphError>(())
//! ```

pub mod opt_bound;
pub mod sketch;
pub mod theta;

pub use sketch::{estimated_copeland, estimated_positional, SketchSet};
pub use theta::{converge_theta, theta_cumulative};
