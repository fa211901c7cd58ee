//! The open-loop request schedule, generated entirely from the seed
//! before the clock starts: every arrival instant, tenant, op, payload,
//! churn event and expected output. Two runs of one seed therefore
//! submit the same stream however the service keeps up.

use nhood_core::collective::{reference_allreduce, reference_alltoallv, reference_reduce_scatter};
use nhood_core::exec::virtual_exec::reference_allgather;
use nhood_core::{BlockSizes, CollectiveOp, Reduction};
use nhood_topology::{Rank, Topology};

use crate::rng::Rng;
use crate::verify::{digest, total_bytes};

/// Relative weights of the collective families one tenant submits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    /// Neighborhood allgather(v).
    pub gather: f64,
    /// Neighborhood alltoallv.
    pub alltoallv: f64,
    /// Sparse reduce_scatter (Sum over u8 lanes).
    pub reduce_scatter: f64,
    /// Sparse allreduce (Sum over u8 lanes).
    pub allreduce: f64,
}

impl Mix {
    /// Every family equally likely.
    pub const UNIFORM: Mix =
        Mix { gather: 1.0, alltoallv: 1.0, reduce_scatter: 1.0, allreduce: 1.0 };
    /// Gather and allreduce only: payload shapes that do not depend on
    /// the topology, so requests stay valid across churn.
    pub const GATHER_ALLREDUCE: Mix =
        Mix { gather: 1.0, alltoallv: 0.0, reduce_scatter: 0.0, allreduce: 1.0 };
    /// Gather family only.
    pub const GATHER: Mix =
        Mix { gather: 1.0, alltoallv: 0.0, reduce_scatter: 0.0, allreduce: 0.0 };

    fn pick(&self, u: f64, ragged: bool) -> CollectiveOp {
        let total = self.gather + self.alltoallv + self.reduce_scatter + self.allreduce;
        let u = u * total;
        if u < self.gather {
            if ragged {
                CollectiveOp::Allgatherv
            } else {
                CollectiveOp::Allgather
            }
        } else if u < self.gather + self.alltoallv {
            CollectiveOp::Alltoallv
        } else if u < self.gather + self.alltoallv + self.reduce_scatter {
            CollectiveOp::ReduceScatter(Reduction::SUM_U8)
        } else {
            CollectiveOp::Allreduce(Reduction::SUM_U8)
        }
    }
}

/// What the generator draws.
#[derive(Clone, Debug)]
pub struct ScheduleSpec {
    /// Poisson arrival rate, requests per second.
    pub rate_rps: f64,
    /// Arrivals stop at this instant (µs after the start).
    pub horizon_us: u64,
    /// Zipf exponent over the power-of-two size ladder.
    pub zipf_s: f64,
    /// Smallest per-rank block, bytes.
    pub size_min: usize,
    /// Largest per-rank block, bytes.
    pub size_max: usize,
    /// Share of requests with per-rank sizes drawn independently.
    pub ragged_frac: f64,
    /// Op mix of each tenant.
    pub mixes: Vec<Mix>,
    /// Tenant that receives single-edge churn, and the churn period (µs).
    pub churn: Option<(usize, u64)>,
}

/// One scheduled request with its expected output.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Intended arrival, µs after the start.
    pub at_us: u64,
    /// Target tenant.
    pub tenant: usize,
    /// Collective to run.
    pub op: CollectiveOp,
    /// Per-rank send buffers.
    pub payloads: Vec<Vec<u8>>,
    /// Digest of the reference output on the topology the request runs
    /// against in the open loop (after every churn scheduled before it).
    pub want: u64,
    /// Digest of the reference output on the tenant's initial topology
    /// (the closed-loop drive applies no churn).
    pub want_initial: u64,
    /// Bytes of the reference output.
    pub out_bytes: usize,
}

/// One scheduled single-edge churn event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Scheduled instant, µs after the start.
    pub at_us: u64,
    /// Tenant whose topology changes.
    pub tenant: usize,
    /// Edge added.
    pub added: (Rank, Rank),
    /// Edge removed.
    pub removed: (Rank, Rank),
}

/// A complete open-loop schedule.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Requests in arrival order.
    pub arrivals: Vec<Arrival>,
    /// Churn events in time order.
    pub churns: Vec<ChurnEvent>,
}

/// Zipf sampler over the ladder `min, 2·min, … ≤ max`.
fn zipf_ladder(min: usize, max: usize, s: f64) -> (Vec<usize>, Vec<f64>) {
    let mut ladder = vec![min.max(1)];
    while ladder.last().expect("non-empty") * 2 <= max {
        ladder.push(ladder.last().expect("non-empty") * 2);
    }
    let w: Vec<f64> = (1..=ladder.len()).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    let cdf = w.iter().map(|x| {
        acc += x / total;
        acc
    });
    (ladder.clone(), cdf.collect())
}

fn draw(ladder: &(Vec<usize>, Vec<f64>), u: f64) -> usize {
    let i = ladder.1.iter().position(|&c| u <= c).unwrap_or(ladder.0.len() - 1);
    ladder.0[i]
}

/// Stratified uniform draws: every block of [`STRATA`] draws takes one
/// value from each of [`STRATA`] equal slices of `[0, 1)`, in a seeded
/// order. Each block of requests then has the same mix of tenants, ops
/// and sizes whatever the seed, so seeds change the stream, not its cost.
struct Strata {
    order: Vec<usize>,
    next: usize,
}

/// Slices per block of [`Strata`].
const STRATA: usize = 64;

impl Strata {
    fn new() -> Self {
        Self { order: Vec::new(), next: 0 }
    }

    fn draw(&mut self, rng: &mut Rng) -> f64 {
        if self.next == self.order.len() {
            self.order = (0..STRATA).collect();
            for i in (1..STRATA).rev() {
                self.order.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        (self.order[self.next - 1] as f64 + rng.unit()) / STRATA as f64
    }
}

/// The graph after one single-edge churn event (the same edit
/// `DistGraphComm::mutate` applies).
pub fn apply_churn(g: &Topology, added: (Rank, Rank), removed: (Rank, Rank)) -> Topology {
    Topology::from_edges(g.n(), g.edges().filter(|&e| e != removed).chain([added]))
}

/// Draws one churn edit on `g`: an existing edge to remove and a
/// non-edge to add.
pub fn draw_churn(g: &Topology, rng: &mut Rng) -> ((Rank, Rank), (Rank, Rank)) {
    let edges: Vec<(Rank, Rank)> = g.edges().collect();
    let removed = edges[rng.below(edges.len())];
    loop {
        let (u, v) = (rng.below(g.n()), rng.below(g.n()));
        if u != v && !g.has_edge(u, v) && (u, v) != removed {
            return ((u, v), removed);
        }
    }
}

/// Per-rank send-buffer lengths for `op` on `g`: block size `uniform`,
/// or one ladder draw per rank when `ragged` (gather family, alltoallv).
fn lengths_for(
    op: CollectiveOp,
    g: &Topology,
    ladder: &(Vec<usize>, Vec<f64>),
    uniform: usize,
    ragged: bool,
    rng: &mut Rng,
) -> Vec<usize> {
    let size = |rng: &mut Rng| if ragged { draw(ladder, rng.unit()) } else { uniform };
    (0..g.n())
        .map(|p| match op {
            CollectiveOp::Allgather | CollectiveOp::Allgatherv => size(rng),
            CollectiveOp::Alltoallv => g.outdegree(p) * size(rng),
            CollectiveOp::ReduceScatter(_) => g.outdegree(p) * uniform,
            CollectiveOp::Allreduce(_) => uniform,
        })
        .collect()
}

/// The reference output of `op` over `payloads` on `g`.
pub fn reference(op: CollectiveOp, g: &Topology, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let n = g.n();
    match op {
        CollectiveOp::Allgather | CollectiveOp::Allgatherv => reference_allgather(g, payloads),
        CollectiveOp::Alltoallv => {
            let sizes = (0..n)
                .map(|p| payloads[p].len().checked_div(g.outdegree(p)).unwrap_or(0))
                .collect();
            reference_alltoallv(g, payloads, &BlockSizes::per_rank(sizes))
        }
        CollectiveOp::ReduceScatter(red) => {
            let m = (0..n)
                .find(|&p| g.outdegree(p) > 0)
                .map_or(0, |p| payloads[p].len() / g.outdegree(p));
            reference_reduce_scatter(g, payloads, &BlockSizes::uniform(m), red)
        }
        CollectiveOp::Allreduce(red) => reference_allreduce(g, payloads, red),
    }
}

/// Generates the whole schedule for tenants with initial topologies `graphs`.
pub fn generate(spec: &ScheduleSpec, graphs: &[Topology], seed: u64) -> Schedule {
    generate_window(spec, graphs, seed, 0..spec.horizon_us)
}

/// The part of the schedule in `window` (µs), rebased to the window's
/// start. Every draw that shapes the stream is made for the whole
/// horizon, so a window holds exactly the events the whole schedule has
/// there; only the window's payloads and references are built. Windows
/// run in order, each draining before the next, keep every request on
/// the topology the schedule assigned it.
pub fn generate_window(
    spec: &ScheduleSpec,
    graphs: &[Topology],
    seed: u64,
    window: std::ops::Range<u64>,
) -> Schedule {
    assert_eq!(spec.mixes.len(), graphs.len(), "one op mix per tenant");
    let mut rng = Rng::new(seed, 0x5C4E);
    let ladder = zipf_ladder(spec.size_min, spec.size_max, spec.zipf_s);

    // Churn first, so each arrival knows the topology epoch it runs on.
    let mut churns = Vec::new();
    let mut epochs: Vec<Vec<Topology>> = graphs.iter().map(|g| vec![g.clone()]).collect();
    if let Some((tenant, every_us)) = spec.churn {
        let mut at_us = every_us;
        while at_us < spec.horizon_us {
            let cur = epochs[tenant].last().expect("initial epoch");
            let (added, removed) = draw_churn(cur, &mut rng);
            let next = apply_churn(cur, added, removed);
            epochs[tenant].push(next);
            churns.push(ChurnEvent { at_us, tenant, added, removed });
            at_us += every_us;
        }
    }

    let mut arrivals = Vec::new();
    let (mut tenants, mut kinds, mut raggeds, mut sizes) =
        (Strata::new(), Strata::new(), Strata::new(), Strata::new());
    let mean_gap_us = 1e6 / spec.rate_rps;
    let mut t = 0.0f64;
    for index in 0u64.. {
        t += -mean_gap_us * (1.0 - rng.unit()).ln();
        let at_us = t as u64;
        if at_us >= spec.horizon_us {
            break;
        }
        let tenant =
            ((tenants.draw(&mut rng) * graphs.len() as f64) as usize).min(graphs.len() - 1);
        let ragged = raggeds.draw(&mut rng) < spec.ragged_frac;
        let op = spec.mixes[tenant].pick(kinds.draw(&mut rng), ragged);
        let uniform = draw(&ladder, sizes.draw(&mut rng));
        // Churn due at the same instant runs first.
        let epoch = churns.iter().filter(|c| c.tenant == tenant && c.at_us <= at_us).count();
        let g = &epochs[tenant][epoch];
        let lengths = lengths_for(op, g, &ladder, uniform, ragged, &mut rng);
        if !window.contains(&at_us) {
            continue;
        }
        let mut fill = Rng::new(seed, 0x1_0000_0000 + index);
        let payloads: Vec<Vec<u8>> = lengths.into_iter().map(|len| fill.bytes(len)).collect();
        let want_out = reference(op, g, &payloads);
        let want_initial = if epoch == 0 {
            digest(&want_out)
        } else {
            digest(&reference(op, &graphs[tenant], &payloads))
        };
        arrivals.push(Arrival {
            at_us: at_us - window.start,
            tenant,
            op,
            want: digest(&want_out),
            want_initial,
            out_bytes: total_bytes(&want_out),
            payloads,
        });
    }
    churns.retain(|c| window.contains(&c.at_us));
    for c in &mut churns {
        c.at_us -= window.start;
    }
    Schedule { arrivals, churns }
}

impl Schedule {
    /// A byte serialization of everything the schedule submits, for
    /// determinism checks.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |x: u64| out.extend_from_slice(&x.to_le_bytes());
        let out_name = |put: &mut dyn FnMut(u64), name: &str| {
            put(name.len() as u64);
            name.bytes().for_each(|b| put(u64::from(b)));
        };
        for a in &self.arrivals {
            put(a.at_us);
            put(a.tenant as u64);
            out_name(&mut put, a.op.name());
            put(a.want);
            put(a.want_initial);
            for p in &a.payloads {
                put(p.len() as u64);
                put(digest(std::slice::from_ref(p)));
            }
        }
        for c in &self.churns {
            for x in [c.at_us, c.tenant as u64, c.added.0 as u64, c.added.1 as u64] {
                put(x);
            }
            put(c.removed.0 as u64);
            put(c.removed.1 as u64);
        }
        out
    }
}
