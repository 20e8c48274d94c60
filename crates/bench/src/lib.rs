//! # gp-bench — benchmark harnesses for the GraphPipe evaluation
//!
//! One binary per table/figure of the paper (see `src/bin/`). Shared
//! helpers live here.

#![forbid(unsafe_code)]

pub mod harness;
