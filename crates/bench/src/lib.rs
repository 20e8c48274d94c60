//! # gp-bench — benchmark harnesses for the GraphPipe evaluation
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! planner, simulator, and serving profiles. Shared helpers live here.

#![forbid(unsafe_code)]

pub mod harness;
