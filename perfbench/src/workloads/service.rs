//! `service-mixed`: the multi-tenant service under an open loop. Four
//! clean tenants, each ER n=64, δ=0.3 (distinct seeds), on the virtual
//! backend with batching on. Tenants 0–2 submit the uniform op mix
//! (allgather(v), alltoallv, reduce_scatter, allreduce); tenant 3
//! submits gather and allreduce only and receives a single-edge churn at
//! fixed scheduled instants. Sizes follow a Zipf ladder from 16 B to
//! 2 KiB, 30% of requests ragged, Poisson arrivals at one fixed rate.
//! Each stretch of the open loop is also driven closed-loop, as the
//! identical requests repeated a few times, for capacity.

use std::time::{Duration, Instant};

use nhood_core::exec::sim_exec::simulate_v;
use nhood_core::{Algorithm, DistGraphComm, SimCost};
use nhood_service::traffic::GenRequest;
use nhood_service::{Service, ServiceConfig, Verify};
use nhood_topology::random::erdos_renyi;
use nhood_topology::Topology;

use super::{layout_for, SweepInput};
use crate::report::{peak_rss_mb, Samples};
use crate::rng::Rng;
use crate::schedule::{generate, generate_window, Mix, Schedule, ScheduleSpec};
use crate::svc::{closed_loop, open_loop};
use crate::trace::Tracer;
use crate::verify::Ledger;

const N: usize = 64;
const TENANTS: usize = 4;
/// Offered load of the open loop, requests per second: about a twelfth
/// of the closed-loop capacity, so that queueing does not multiply the
/// host's own speed drift into the latency.
pub const RATE_RPS: f64 = 50.0;
/// Share of the budget the open loop's arrivals span.
const OPEN_SHARE: f64 = 0.6;
/// Stretches the run is cut into.
const SEGMENTS: usize = 16;
/// Closed-loop drives of each stretch's requests.
const DRIVES: usize = 4;
/// Per-rank block of the tenants' modelled allgather, bytes.
const MODEL_BLOCK: usize = 256;
/// Service registrations timed for `setup_s`, per stretch.
const SETUP_REPS: usize = 4;
/// Churn period of tenant 3, µs.
const CHURN_EVERY_US: u64 = 125_000;

fn graph_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x5356);
    (0..TENANTS).map(|_| rng.next_u64()).collect()
}

/// The tenants' initial topologies.
pub fn graphs(seed: u64) -> Vec<Topology> {
    tenant_graphs(seed, &Tracer::new(false))
}

fn tenant_graphs(seed: u64, tracer: &Tracer) -> Vec<Topology> {
    graph_seeds(seed)
        .into_iter()
        .map(|gs| tracer.span("topology.gen", || erdos_renyi(N, 0.3, gs)))
        .collect()
}

/// The schedule spec for an open loop whose arrivals span `horizon`.
pub fn spec(horizon: Duration) -> ScheduleSpec {
    ScheduleSpec {
        rate_rps: RATE_RPS,
        horizon_us: horizon.as_micros() as u64,
        zipf_s: 1.1,
        size_min: 16,
        size_max: 2048,
        ragged_frac: 0.3,
        mixes: vec![Mix::UNIFORM, Mix::UNIFORM, Mix::UNIFORM, Mix::GATHER_ALLREDUCE],
        churn: Some((TENANTS - 1, CHURN_EVERY_US)),
    }
}

fn config() -> ServiceConfig {
    ServiceConfig { verify: Verify::None, keep_outputs: true, ..ServiceConfig::default() }
}

/// A service with one DH tenant per graph.
pub fn register(graphs: &[Topology]) -> Service {
    let mut svc = Service::new(config());
    for g in graphs {
        svc.add_tenant(g.clone(), layout_for(g.n()), Algorithm::DistanceHalving)
            .expect("tenant registers");
    }
    svc
}

/// Runs the workload. The run is cut into [`SEGMENTS`] stretches, each
/// a group of timed registrations, one stretch of the open loop, and the
/// same requests driven closed-loop [`DRIVES`] times on a second service
/// without churn, so every metric samples the whole run.
pub fn run(seed: u64, budget: Duration, tracer: &Tracer, ledger: &mut Ledger) -> Samples {
    let mut s = Samples::default();
    let graphs = tenant_graphs(seed, tracer);
    let spec = spec(budget.mul_f64(OPEN_SHARE));
    let len = spec.horizon_us.div_ceil(SEGMENTS as u64);
    let (mut svc, mut fresh) = (register(&graphs), register(&graphs));
    for k in 0..SEGMENTS as u64 {
        let segment = generate_window(&spec, &graphs, seed, k * len..(k + 1) * len);
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            drop(tracer.span("setup", || register(&graphs)));
            s.setup_s.push(t0.elapsed().as_secs_f64());
            ledger.ok();
        }
        let stream: Vec<GenRequest> = segment
            .arrivals
            .iter()
            .map(|a| GenRequest { tenant: a.tenant, op: a.op, payloads: a.payloads.clone() })
            .collect();
        let want: Vec<(u64, usize)> =
            segment.arrivals.iter().map(|a| (a.want_initial, a.out_bytes)).collect();
        let open =
            tracer.span("service.open_loop", || open_loop(&mut svc, segment, tracer, ledger));
        s.step_us.extend(open.latency_us);
        s.mutate_us.extend(open.churn_us);
        for _ in 0..DRIVES {
            let closed = tracer
                .span("service.closed_loop", || closed_loop(&mut fresh, &stream, &want, ledger));
            s.tput.push((closed.completed, closed.bytes, closed.wall_s));
        }
    }

    for g in &graphs {
        let comm = DistGraphComm::create_adjacent(g.clone(), layout_for(N)).expect("layout fits");
        let lens = vec![MODEL_BLOCK; N];
        let plan = comm.plan_shared(Algorithm::DistanceHalving);
        if let Ok(Ok(r)) = plan.map(|p| simulate_v(&p, &layout_for(N), &lens, &SimCost::niagara()))
        {
            s.model_us.push(r.makespan * 1e6);
        }
    }
    s.peak_rss_mb = peak_rss_mb();
    s
}

/// The open-loop schedule of a run with `budget` (for determinism checks).
pub fn schedule(seed: u64, budget: Duration) -> Schedule {
    generate(&spec(budget.mul_f64(OPEN_SHARE)), &graphs(seed), seed)
}

/// The sweep works on tenant 0's graph at 256 B.
pub fn sweep_input(seed: u64) -> SweepInput {
    let gs = graph_seeds(seed)[0];
    SweepInput { gen: Box::new(move || erdos_renyi(N, 0.3, gs)), layout: layout_for(N), m: 256 }
}
