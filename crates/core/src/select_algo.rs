//! Automatic algorithm selection — thin entry points over the
//! simulation-driven tuner in [`crate::autotune`].
//!
//! Selection scores every portfolio candidate through the §V cost model
//! for the exact (topology, layout, [`BlockSizes`]) request:
//! [`recommend_sized`] is the real surface and [`recommend`] is its
//! uniform-size case, so no static threshold can drift from the model.
//! Ragged workloads are classified by their actual per-rank byte
//! totals, not by a representative uniform size. Callers who know
//! better can always pick explicitly.

use crate::comm::DistGraphComm;
use crate::plan::Algorithm;
use crate::sizes::BlockSizes;
use nhood_cluster::ClusterLayout;
use nhood_telemetry::NULL;
use nhood_topology::Topology;

/// Recommends an allgather algorithm for a topology / layout / uniform
/// payload size — [`recommend_sized`] over the degenerate size table.
pub fn recommend(graph: &Topology, layout: &ClusterLayout, m: usize) -> Algorithm {
    recommend_sized(graph, layout, &BlockSizes::uniform(m))
}

/// The size-aware selection surface: scores the full candidate
/// portfolio through the §V cost model against the **actual per-rank
/// byte totals** and returns the simulated winner. Degenerate inputs
/// (fewer than two ranks, a single node, a layout the topology does not
/// fit) short-circuit to [`Algorithm::Naive`] — with nothing to
/// combine, direct sends are optimal and a simulation sweep is waste.
pub fn recommend_sized(graph: &Topology, layout: &ClusterLayout, sizes: &BlockSizes) -> Algorithm {
    let n = graph.n();
    if n < 2 || layout.nodes() == 1 || n <= layout.ranks_per_node() {
        return Algorithm::Naive;
    }
    let Ok(comm) = DistGraphComm::create_adjacent(graph.clone(), layout.clone()) else {
        return Algorithm::Naive;
    };
    let cands = crate::autotune::candidates(n, layout);
    match comm.tune_candidates(&cands, sizes, &NULL) {
        Ok(outcome) => outcome.winner,
        Err(_) => Algorithm::Naive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sim_exec::{simulate, simulate_v, SimCost};
    use nhood_topology::random::erdos_renyi;

    #[test]
    fn recommendation_is_the_simulated_argmin() {
        // the recommendation must match the best candidate under the
        // tuner's own cost model — selection IS the sweep now
        let layout = ClusterLayout::niagara(6, 36);
        let cost = SimCost::niagara();
        for (delta, m) in [(0.3f64, 64usize), (0.3, 262_144), (0.5, 64), (0.1, 65_536)] {
            let g = erdos_renyi(216, delta, 7);
            let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
            let rec = recommend(&g, &layout, m);
            let t_rec = simulate(&comm.plan(rec).unwrap(), &layout, m, &cost).unwrap().makespan;
            for cand in crate::autotune::candidates(216, &layout) {
                let t = simulate(&comm.plan(cand).unwrap(), &layout, m, &cost).unwrap().makespan;
                assert!(
                    t_rec <= t + 1e-15,
                    "delta={delta} m={m}: recommended {rec} ({t_rec:.2e}s) beaten by {cand} ({t:.2e}s)"
                );
            }
        }
    }

    #[test]
    fn single_node_is_always_direct() {
        let layout = ClusterLayout::new(1, 2, 16);
        let g = erdos_renyi(32, 0.5, 2);
        assert_eq!(recommend(&g, &layout, 64), Algorithm::Naive);
        assert_eq!(recommend(&g, &layout, 1 << 22), Algorithm::Naive);
    }

    #[test]
    fn tiny_communicators_are_direct() {
        let layout = ClusterLayout::new(2, 1, 1);
        assert_eq!(recommend(&Topology::from_edges(1, []), &layout, 64), Algorithm::Naive);
    }

    #[test]
    fn ragged_sizes_flow_into_selection() {
        // Regression: selection once classified ragged workloads by a
        // uniform m alone. recommend_sized must consume the real table:
        // its winner is the argmin under THOSE byte totals.
        let layout = ClusterLayout::niagara(4, 32);
        let g = erdos_renyi(128, 0.3, 3);
        // every 7th rank huge, the rest tiny — a mean-m classifier and
        // a table-aware one see very different workloads
        let table: Vec<usize> = (0..128).map(|r| if r % 7 == 0 { 1 << 18 } else { 16 }).collect();
        let sizes = BlockSizes::per_rank(table.clone());
        let rec = recommend_sized(&g, &layout, &sizes);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
        let cost = SimCost::niagara();
        let t_rec = simulate_v(&comm.plan(rec).unwrap(), &layout, &table, &cost).unwrap().makespan;
        for cand in crate::autotune::candidates(128, &layout) {
            let t = simulate_v(&comm.plan(cand).unwrap(), &layout, &table, &cost).unwrap().makespan;
            assert!(t_rec <= t + 1e-15, "ragged winner {rec} beaten by {cand}");
        }
    }

    #[test]
    fn uniform_shim_agrees_with_the_sized_surface() {
        let layout = ClusterLayout::niagara(4, 32);
        let g = erdos_renyi(128, 0.2, 3);
        for m in [4usize, 64, 4096, 65_536] {
            assert_eq!(
                recommend(&g, &layout, m),
                recommend_sized(&g, &layout, &BlockSizes::uniform(m)),
                "m={m}"
            );
        }
    }
}
