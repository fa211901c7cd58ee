//! The two seeded workloads. Each builds its inputs and their
//! references from the seed before any clock starts, runs its timed
//! loop, and checks every output outside the timed region.

use std::time::Duration;

use nhood_cluster::ClusterLayout;
use nhood_core::{CollectiveOutput, CommError};
use nhood_topology::Topology;

use crate::report::Samples;
use crate::trace::Tracer;
use crate::verify::{digest, Ledger};

pub mod churn;
pub mod service;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["setup-churn", "service-mixed"];

/// What the layer sweep of the traced run works on: the workload's
/// primary communicator inputs.
pub struct SweepInput {
    /// Regenerates the primary topology (timed as the topology layer).
    pub gen: Box<dyn Fn() -> Topology>,
    /// Cluster layout of the primary communicator.
    pub layout: ClusterLayout,
    /// Per-rank block size of the sweep's allgather.
    pub m: usize,
}

/// Runs workload `name` for about `budget`.
pub fn run(
    name: &str,
    seed: u64,
    budget: Duration,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Samples {
    match name {
        "setup-churn" => churn::run(seed, budget, tracer, ledger),
        "service-mixed" => service::run(seed, budget, tracer, ledger),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The sweep input of workload `name`.
pub fn sweep_input(name: &str, seed: u64) -> SweepInput {
    match name {
        "setup-churn" => churn::sweep_input(seed),
        "service-mixed" => service::sweep_input(seed),
        other => unreachable!("unknown workload {other}"),
    }
}

/// A block layout for `n` ranks: 2 sockets of 16 cores per node.
pub fn layout_for(n: usize) -> ClusterLayout {
    ClusterLayout::new(n.div_ceil(32), 2, 16)
}

/// Checks a collective's result against a reference digest.
pub fn check(ledger: &mut Ledger, out: &Result<CollectiveOutput, CommError>, want: u64) -> bool {
    match out {
        Ok(o) => ledger.check_digest(digest(&o.rbufs), want),
        Err(_) => {
            ledger.fail();
            false
        }
    }
}
