//! The repository's benchmark: five named workloads over the whole stack,
//! end-to-end metrics from a run with tracing off, per-layer metrics from a
//! traced run, every output checked. See `README.md` in this directory.
//!
//! `layers` is the only module that names the program under test.

pub mod inputs;
pub mod layers;
pub mod pairs;
pub mod run;
pub mod schedule;
pub mod serving;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod traced;
