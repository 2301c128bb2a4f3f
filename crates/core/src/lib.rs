//! # pio-core — ensemble statistics for parallel I/O performance
//!
//! The paper's contribution: move from the analysis of individual I/O
//! *events* — which vary by orders of magnitude between runs — to the
//! analysis of performance *ensembles*, whose "statistical moments and
//! modes … are reproducible". This crate implements that methodology over
//! IPM-I/O traces:
//!
//! * [`hist`] — linear completion-time histograms (the paper's
//!   Figure 1(c)); the log-log ones (Figures 4(c,f), 6(c,f,i,l)) are
//!   [`pio_des::hist::LogHistogram`], shared with capture and ingest.
//! * [`empirical`] — empirical distributions: ECDF, quantiles, moments.
//! * [`kde`] — Gaussian kernel density estimation for smooth mode finding.
//! * [`modes`] — peak detection and harmonic-structure recognition
//!   (the R, R/2, R/4 fingerprint of intra-node serialization).
//! * [`order_stats`] — Equation (1): `f_N(t) = N·F(t)^(N-1)·f(t)`, the
//!   distribution of a synchronous phase's slowest event.
//! * [`lln`] — Law-of-Large-Numbers analysis: k-fold convolutions and the
//!   predicted narrowing that explains the paper's Figure 2 speedups.
//! * [`distance`] — Kolmogorov–Smirnov and Wasserstein-1 distances for
//!   run-to-run reproducibility claims.
//! * [`bootstrap`] — resampling confidence intervals: is a shift between
//!   two runs' medians signal or noise?
//! * [`compare`] — before/after run comparison per call class (the
//!   Figure 5(b) "before and after middleware update" view).
//! * [`rates`] — aggregate data-rate curves and size-normalized (sec/MB)
//!   samples from traces (Figures 1(b), 4(b,e), 6(b,e,h,k)).
//! * [`ensemble`] — multi-run ensembles and stability measurement.
//! * [`diagnosis`] — the bottleneck detectors the paper's three case
//!   studies demonstrate: harmonic modes, right-shoulder read anomalies,
//!   progressive per-phase deterioration, and rank-serialized metadata.
//! * [`attribution`] — fault-class attribution: per-rank and per-stripe
//!   tail decomposition that turns a histogram anomaly into a verdict
//!   (straggler node, slow OST, flaky fabric, drop/retry, MDS stall,
//!   metadata storm).
//! * [`report`] — a human-readable analysis report per trace.

pub mod attribution;
pub mod bootstrap;
pub mod compare;
pub mod diagnosis;
pub mod distance;
pub mod empirical;
pub mod ensemble;
pub mod hist;
pub mod kde;
pub mod lln;
pub mod modes;
pub mod order_stats;
pub mod rates;
pub mod report;

pub use attribution::{FaultClass, TailProfile};
pub use diagnosis::{diagnose, Finding};
pub use empirical::EmpiricalDist;
pub use ensemble::Ensemble;
pub use hist::Histogram;
pub use modes::Mode;
