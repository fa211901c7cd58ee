//! Persistent neighborhood collectives — the MPI-4
//! `MPI_Neighbor_allgather_init` workflow: plan once, execute many times
//! against preallocated buffers.
//!
//! [`PersistentAllgather`] owns a validated plan and a reusable
//! [`BlockArena`]: `init` pre-computes the zero-copy arena layout, and
//! every [`execute`](PersistentAllgather::execute) runs over the same
//! flat buffers, recycling the previous call's receive buffers. After
//! the first execution at a given message size, steady-state executions
//! perform **no allocations at all** (asserted via
//! [`BlockArena::reallocations`]). This is how an application amortizes
//! the one-time pattern-creation cost — the whole point of the Fig. 8
//! trade-off.

use crate::arena::BlockArena;
use crate::comm::{CommError, DistGraphComm};
use crate::exec::{ExecError, ExecOptions, Executor, Virtual};
use crate::plan::{Algorithm, CollectivePlan};
use nhood_topology::Topology;
use std::sync::Arc;

/// A planned, reusable neighborhood allgather.
#[derive(Debug)]
pub struct PersistentAllgather {
    graph: Topology,
    plan: Arc<CollectivePlan>,
    /// Reusable zero-copy workspace: cached layout + flat buffers.
    arena: BlockArena,
    /// Receive buffers of the latest execution; recycled into the arena
    /// at the start of the next one.
    rbufs: Vec<Vec<u8>>,
    executions: usize,
}

impl PersistentAllgather {
    /// Plans the collective once (the expensive step) and pre-computes
    /// the arena layout, so the first `execute` only pays buffer
    /// allocation.
    pub fn init(comm: &DistGraphComm, algo: Algorithm) -> Result<Self, CommError> {
        Self::init_with(comm, algo, &ExecOptions::new())
    }

    /// [`Self::init`] with explicit [`ExecOptions`]: planning goes
    /// through the communicator as configured — its plan cache when one
    /// is attached (repeated `init_with` on one cached (topology,
    /// algorithm) pair is O(1) after the first) and its build pool for a
    /// cold build — and cache lookups / build spans report to
    /// `opts.recorder`.
    pub fn init_with(
        comm: &DistGraphComm,
        algo: Algorithm,
        opts: &ExecOptions<'_>,
    ) -> Result<Self, CommError> {
        let plan = comm.plan_shared_recorded(algo, opts.recorder)?;
        let mut arena = BlockArena::new();
        arena.prepare(&plan, comm.graph())?;
        Ok(Self { graph: comm.graph().clone(), plan, arena, rbufs: Vec::new(), executions: 0 })
    }

    /// The underlying plan (inspection only).
    pub fn plan(&self) -> &CollectivePlan {
        &self.plan
    }

    /// How many times this collective has executed.
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// How many buffer growths all executions have paid so far. Constant
    /// across steady-state executions at a fixed message size.
    pub fn reallocations(&self) -> u64 {
        self.arena.reallocations()
    }

    /// Executes the planned collective on fresh payloads, reusing the
    /// internal arena. Returns per-rank receive buffers (borrowed until
    /// the next execution).
    pub fn execute(&mut self, payloads: &[Vec<u8>]) -> Result<&[Vec<u8>], ExecError> {
        self.run(payloads, &ExecOptions::new())
    }

    /// The `allgatherv` variant of [`execute`](Self::execute): per-rank
    /// payloads may differ in length (including zero-length blocks). The
    /// same plan and arena serve both — block extents are resolved from
    /// the payload lengths at execution time, so a persistent collective
    /// may alternate freely between uniform and ragged rounds.
    pub fn execute_v(&mut self, payloads: &[Vec<u8>]) -> Result<&[Vec<u8>], ExecError> {
        self.run(payloads, &ExecOptions::new().ragged(true))
    }

    fn run(
        &mut self,
        payloads: &[Vec<u8>],
        opts: &ExecOptions<'_>,
    ) -> Result<&[Vec<u8>], ExecError> {
        // recycle the previous output's capacity before running
        self.arena.adopt_rbufs(std::mem::take(&mut self.rbufs));
        let out = Virtual.run(&self.plan, &self.graph, payloads, &mut self.arena, opts)?;
        self.rbufs = out.rbufs;
        self.executions += 1;
        Ok(&self.rbufs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;

    fn comm() -> DistGraphComm {
        let g = erdos_renyi(32, 0.3, 5);
        DistGraphComm::create_adjacent(g, ClusterLayout::new(4, 2, 4)).unwrap()
    }

    #[test]
    fn repeated_executions_are_correct() {
        let c = comm();
        let mut p = PersistentAllgather::init(&c, Algorithm::DistanceHalving).unwrap();
        for round in 0..5u64 {
            let payloads = test_payloads(32, 16, round);
            let want = reference_allgather(c.graph(), &payloads);
            let got = p.execute(&payloads).unwrap();
            assert_eq!(got, &want[..], "round {round}");
        }
        assert_eq!(p.executions(), 5);
    }

    #[test]
    fn ragged_executions_are_correct_and_mix_with_uniform() {
        let c = comm();
        let mut p = PersistentAllgather::init(&c, Algorithm::DistanceHalving).unwrap();
        for round in 0..4u64 {
            // per-rank lengths cycle through 0..=4, shifted per round
            let payloads: Vec<Vec<u8>> = (0..32)
                .map(|r| vec![(r as u8) ^ (round as u8); (r + round as usize) % 5])
                .collect();
            let want = reference_allgather(c.graph(), &payloads);
            assert_eq!(p.execute_v(&payloads).unwrap(), &want[..], "round {round}");
            // alternate with a uniform round on the same arena
            let uniform = test_payloads(32, 16, round);
            let want = reference_allgather(c.graph(), &uniform);
            assert_eq!(p.execute(&uniform).unwrap(), &want[..], "uniform round {round}");
        }
        assert_eq!(p.executions(), 8);
    }

    #[test]
    fn payload_size_may_change_between_executions() {
        let c = comm();
        let mut p = PersistentAllgather::init(&c, Algorithm::DistanceHalving).unwrap();
        for m in [4usize, 64, 8, 0] {
            let payloads = test_payloads(32, m, 9);
            let want = reference_allgather(c.graph(), &payloads);
            assert_eq!(p.execute(&payloads).unwrap(), &want[..], "m={m}");
        }
    }

    #[test]
    fn steady_state_executions_do_not_reallocate() {
        let c = comm();
        let mut p = PersistentAllgather::init(&c, Algorithm::DistanceHalving).unwrap();
        let payloads = test_payloads(32, 64, 3);
        let want = reference_allgather(c.graph(), &payloads);
        // first execution sizes the arena and receive buffers
        assert_eq!(p.execute(&payloads).unwrap(), &want[..]);
        let after_warmup = p.reallocations();
        for round in 0..100 {
            p.execute(&payloads).unwrap();
            assert_eq!(p.reallocations(), after_warmup, "round {round} reallocated");
        }
        assert_eq!(p.executions(), 101);
    }

    #[test]
    fn init_with_reuses_cached_plans() {
        use crate::plan_cache::PlanCache;
        let cache = std::sync::Arc::new(PlanCache::new(4));
        let g = erdos_renyi(32, 0.3, 5);
        let c = DistGraphComm::create_adjacent(g, ClusterLayout::new(4, 2, 4))
            .unwrap()
            .with_plan_cache(std::sync::Arc::clone(&cache));
        let opts = ExecOptions::new();
        let mut a = PersistentAllgather::init_with(&c, Algorithm::DistanceHalving, &opts).unwrap();
        let mut b = PersistentAllgather::init_with(&c, Algorithm::DistanceHalving, &opts).unwrap();
        let s = cache.stats();
        assert_eq!(s.misses, 1, "first init builds");
        assert_eq!(s.hits, 1, "second init reuses");
        // both instances execute correctly off the shared plan
        let payloads = test_payloads(32, 8, 4);
        let want = reference_allgather(c.graph(), &payloads);
        assert_eq!(a.execute(&payloads).unwrap(), &want[..]);
        assert_eq!(b.execute(&payloads).unwrap(), &want[..]);
    }

    #[test]
    fn plan_is_inspectable_and_errors_propagate() {
        let c = comm();
        let mut p = PersistentAllgather::init(&c, Algorithm::Naive).unwrap();
        assert_eq!(p.plan().algorithm, Algorithm::Naive);
        // wrong payload count is an error, not a panic, and leaves the
        // collective reusable
        assert!(p.execute(&[vec![0u8; 4]]).is_err());
        let payloads = test_payloads(32, 4, 1);
        assert!(p.execute(&payloads).is_ok());
        assert_eq!(p.executions(), 1, "failed executions are not counted");
    }
}
