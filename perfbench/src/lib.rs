//! The repository benchmark for the neighborhood-collective workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one of two seeded workloads. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it runs the workload untraced
//! and traced, sweeps every layer on the workload's inputs, prints the
//! per-layer metrics and the tracing overhead, and writes the spans to
//! `perfbench/out/`. The last stdout line is the JSON result; the run
//! exits nonzero if any output differed from its reference.

pub mod layers;
pub mod report;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod svc;
pub mod sweep;
pub mod trace;
pub mod verify;
pub mod workloads;
