//! `setup-churn`: cold construction and churn over a seeded stream of
//! distinct communicators — ER n=256 at δ 0.05 and 0.3, ER n=512 at δ
//! 0.1, a 3-d torus 8³, Moore 2-d r=2 on 256 ranks, and one SpMM tenant.
//! Each pass builds all six, each with a fresh plan cache:
//! `create_adjacent` → `plan_shared(DH)` → `collective(Auto)` (a tuner
//! miss, then the first verified output) → `collective(Auto)` again (a
//! tuner hit). It then runs steady rounds — one step on each of the six
//! tuned plans with warm arenas, as a persistent collective would — each
//! followed by one single-edge `mutate` event on the next communicator in
//! turn, itself followed by one verified allgather.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::simulate_v;
use nhood_core::exec::virtual_exec::reference_allgather;
use nhood_core::{
    Algorithm, BlockArena, CollectivePlan, CollectiveRequest, CommError, DistGraphComm,
    ExecOptions, Executor, PlanCache, SimCost, Virtual,
};
use nhood_service::traffic::spmm_tenant;
use nhood_topology::moore::moore;
use nhood_topology::random::erdos_renyi;
use nhood_topology::torus::torus;
use nhood_topology::{MooreSpec, Topology, TorusSpec};

use super::{check, layout_for, SweepInput};
use crate::report::{peak_rss_mb, Samples};
use crate::rng::Rng;
use crate::schedule::{apply_churn, draw_churn};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::verify::{digest, total_bytes, Ledger};

/// Block size of every allgather in the workload.
const M: usize = 64;
/// Steady rounds per pass (one step on each communicator per round).
const ROUNDS: usize = 72;

/// The communicator shapes of one pass, in stream order.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Er(usize, f64),
    Torus,
    Moore,
    Spmm,
}

const STREAM: [Shape; 6] = [
    Shape::Er(256, 0.05),
    Shape::Er(256, 0.3),
    Shape::Er(512, 0.1),
    Shape::Torus,
    Shape::Moore,
    Shape::Spmm,
];

fn generate(shape: Shape, gseed: u64) -> Topology {
    match shape {
        Shape::Er(n, d) => erdos_renyi(n, d, gseed),
        Shape::Torus => torus(TorusSpec { d: 3, k: 8 }),
        Shape::Moore => moore(256, MooreSpec { r: 2, d: 2 }),
        Shape::Spmm => spmm_tenant(4096, 4096 * 24, 128, gseed).0,
    }
}

/// One communicator of the stream with its inputs and reference.
struct Member {
    comm: DistGraphComm,
    /// Current topology (changes under churn).
    graph: Topology,
    /// The tuned plan and the topology it was built for: the steady
    /// steps' persistent collective, which churn leaves alone.
    tuned: (Arc<CollectivePlan>, Topology),
    layout: ClusterLayout,
    payloads: Vec<Vec<u8>>,
    want: u64,
    bytes: f64,
    arena: BlockArena,
}

/// Runs the workload: passes over the stream while another pass fits in
/// `budget`, judged by the mean pass so far (at least one). The six
/// shapes differ in cost by an order of magnitude, so `setup_s` and
/// `mutate_p50_us` are the geometric mean over shapes of each shape's
/// own median: every shape counts, and none dominates; a step is one
/// round over all six.
pub fn run(seed: u64, budget: Duration, tracer: &Tracer, ledger: &mut Ledger) -> Samples {
    let mut s = Samples::default();
    let mut rng = Rng::new(seed, 0x4348);
    let start = Instant::now();
    let mut passes = 0;
    let mut setup = vec![Vec::new(); STREAM.len()];
    let mut mutate = vec![Vec::new(); STREAM.len()];
    while passes == 0 || start.elapsed().mul_f64(1.0 + 1.0 / passes as f64) <= budget {
        passes += 1;
        let mut members = Vec::new();
        for (i, shape) in STREAM.into_iter().enumerate() {
            let gseed = rng.next_u64();
            let graph = tracer.span("topology.gen", || generate(shape, gseed));
            if let Some((m, t)) = construct(graph, &mut rng, tracer, ledger) {
                setup[i].push(t);
                members.push(m);
            }
        }
        for m in &mut members {
            let lens = vec![M; m.graph.n()];
            if let Ok(r) = simulate_v(&m.tuned.0, &m.layout, &lens, &SimCost::niagara()) {
                s.model_us.push(r.makespan * 1e6);
            }
            // Arm the live plan that single-edge edits repair.
            if m.comm.mutate(&[], &[]).is_err() {
                ledger.fail();
            }
        }
        // Steady rounds, each followed by one churn event on the next
        // member in turn, so the events sample the whole pass.
        for r in 0..ROUNDS {
            round(&mut members, &mut s, tracer, ledger);
            let i = r % members.len();
            mutate[i].push(churn_event(&mut members[i], &mut rng, tracer, ledger));
        }
        for m in &members {
            if let Some(cache) = m.comm.plan_cache() {
                let st = cache.stats();
                tracer.note("plan_cache.hits", st.hits as f64);
                tracer.note("plan_cache.misses", st.misses as f64);
            }
        }
    }
    s.setup_s = vec![geomean(&setup.iter().map(|v| median(v)).collect::<Vec<_>>())];
    s.mutate_us = vec![geomean(&mutate.iter().map(|v| median(v)).collect::<Vec<_>>())];
    s.peak_rss_mb = peak_rss_mb();
    s
}

/// Builds one member up to its first verified `Auto` output (timed, in
/// seconds), then serves one tuner hit.
fn construct(
    graph: Topology,
    rng: &mut Rng,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Option<(Member, f64)> {
    let n = graph.n();
    let layout = layout_for(n);
    let payloads: Vec<Vec<u8>> = (0..n).map(|_| rng.bytes(M)).collect();
    let want_out = reference_allgather(&graph, &payloads);
    let (want, bytes) = (digest(&want_out), total_bytes(&want_out) as f64);
    drop(want_out);

    let t0 = Instant::now();
    let (comm, first) = tracer.span("setup", || {
        let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone())
            .expect("layout fits the topology")
            .with_plan_cache(Arc::new(PlanCache::new(32)));
        let planned = comm.plan_shared(Algorithm::DistanceHalving);
        let req = CollectiveRequest::allgather(&payloads).algorithm(Algorithm::Auto);
        let first = tracer.span("collective.call", || comm.collective(&req));
        (comm, planned.and(first))
    });
    let t = t0.elapsed().as_secs_f64();
    if !check(ledger, &first, want) {
        return None;
    }
    let req = CollectiveRequest::allgather(&payloads).algorithm(Algorithm::Auto);
    let hit = tracer.span("collective.call", || comm.collective(&req));
    check(ledger, &hit, want);
    let Ok(plan) = comm.plan_shared(Algorithm::Auto) else {
        ledger.fail();
        return None;
    };
    let tuned = (plan, graph.clone());
    Some((
        Member { comm, graph, tuned, layout, payloads, want, bytes, arena: BlockArena::new() },
        t,
    ))
}

/// One step on every member: its tuned plan on a warm arena.
fn round(members: &mut [Member], s: &mut Samples, tracer: &Tracer, ledger: &mut Ledger) {
    let opts = ExecOptions::new();
    let t0 = Instant::now();
    let outs: Vec<Result<Vec<Vec<u8>>, CommError>> = tracer.span("step", || {
        members
            .iter_mut()
            .map(|m| {
                Ok(Virtual.run(&m.tuned.0, &m.tuned.1, &m.payloads, &mut m.arena, &opts)?.rbufs)
            })
            .collect()
    });
    let dt = t0.elapsed().as_secs_f64();
    s.step_us.push(dt * 1e6);
    let (mut bytes, mut ok) = (0.0, true);
    for (out, m) in outs.iter().zip(members.iter()) {
        match out {
            Ok(rbufs) if ledger.check_digest(digest(rbufs), m.want) => bytes += m.bytes,
            Ok(_) => ok = false,
            Err(_) => {
                ledger.fail();
                ok = false;
            }
        }
    }
    s.tput.push((f64::from(u8::from(ok)), bytes, dt));
}

/// One single-edge edit on a member followed by one verified
/// allgather on the repaired plan; returns its µs.
fn churn_event(m: &mut Member, rng: &mut Rng, tracer: &Tracer, ledger: &mut Ledger) -> f64 {
    let (added, removed) = draw_churn(&m.graph, rng);
    m.graph = apply_churn(&m.graph, added, removed);
    let want = digest(&reference_allgather(&m.graph, &m.payloads));
    let req = CollectiveRequest::allgather(&m.payloads).algorithm(Algorithm::DistanceHalving);
    let t0 = Instant::now();
    let rep = tracer.span("repair.mutate", || m.comm.mutate(&[added], &[removed]));
    let out = tracer.span("collective.call", || m.comm.collective(&req));
    let us = t0.elapsed().as_secs_f64() * 1e6;
    match rep {
        Ok(r) => {
            tracer.note("repair.damage_frac", r.damage_frac);
            tracer.note("repair.full_rebuild", f64::from(u8::from(r.full_rebuild)));
        }
        Err(_) => ledger.fail(),
    }
    check(ledger, &out, want);
    us
}

/// The sweep works on the stream's ER n=256, δ=0.3 communicator at 64 B.
pub fn sweep_input(seed: u64) -> SweepInput {
    let gseed = Rng::new(seed, 0x4349).next_u64();
    SweepInput {
        gen: Box::new(move || erdos_renyi(256, 0.3, gseed)),
        layout: layout_for(256),
        m: M,
    }
}
