//! # mx-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation; the `src/bin`
//! binaries are thin wrappers so each experiment can be regenerated with
//! `cargo run -p mx-bench --release --bin <name>`. Set `MX_SCALE=small`
//! for a fast run or `MX_SCALE=study` (default) for the calibrated scale;
//! `MX_SEED` overrides the seed (default 42). `export_json` writes the
//! key tables as `results/experiments.json` through `mx_obs::json`.
//!
//! [`microbench`] is the harness behind `cargo bench -p mx-bench`. The
//! end-to-end benchmark (study, delta and serve workloads, plus the
//! per-layer table) is the separate `perfbench/` package.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod microbench;
pub mod runner;

pub use experiments::*;
pub use runner::{scale_from_env, ExperimentCtx};
