//! The layer sweep of the traced run: each layer's public entry point,
//! called on the workload's primary communicator inputs and wrapped in a
//! span, with counts read from `CountingRecorder`. It covers the layers
//! the workload's own loop does not reach, so every per-layer metric is
//! measured on every workload's inputs.

use std::sync::Arc;
use std::time::Duration;

use nhood_core::builder::{build_pattern_recorded_v, PairingStrategy};
use nhood_core::exec::sim_exec::simulate_v;
use nhood_core::exec::virtual_exec::reference_allgather;
use nhood_core::lower::lower_pooled;
use nhood_core::{
    Algorithm, ArenaLayout, BlockArena, BlockSizes, CollectiveRequest, DistGraphComm, ExecOptions,
    Executor, LoadMetric, PlanCache, Reduction, SimCost, Threaded, Virtual,
};
use nhood_telemetry::{CountingRecorder, NULL};

use crate::rng::Rng;
use crate::schedule::{apply_churn, draw_churn, generate, reference, Mix, ScheduleSpec};
use crate::svc::open_loop;
use crate::trace::Tracer;
use crate::verify::{digest, Ledger};
use crate::workloads::{service, SweepInput};

/// Repetitions of a cheap call.
const CHEAP: usize = 20;
/// Repetitions of a call that costs milliseconds.
const COSTLY: usize = 3;

/// Runs the sweep on `input`.
pub fn run(input: &SweepInput, seed: u64, tracer: &Tracer, ledger: &mut Ledger) {
    let mut rng = Rng::new(seed, 0x5357);
    let mut graph = None;
    for _ in 0..COSTLY {
        graph = Some(tracer.span("topology.gen", || (input.gen)()));
    }
    let graph = graph.expect("generated");
    let layout = &input.layout;
    let n = graph.n();
    let payloads: Vec<Vec<u8>> = (0..n).map(|_| rng.bytes(input.m)).collect();
    let want = digest(&reference_allgather(&graph, &payloads));

    let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone())
        .expect("layout fits the topology")
        .with_plan_cache(Arc::new(PlanCache::new(16)));
    let pool = comm.build_pool();
    let sizes = BlockSizes::uniform(input.m);

    // builder, lower, plan
    let mut pattern = None;
    for _ in 0..COSTLY {
        pattern = tracer
            .span("builder.build", || {
                build_pattern_recorded_v(
                    &graph,
                    layout,
                    PairingStrategy::LoadAware,
                    &sizes,
                    LoadMetric::Neighbors,
                    pool,
                    &NULL,
                )
            })
            .ok();
    }
    let Some(pattern) = pattern else {
        ledger.fail();
        return;
    };
    let st = pattern.stats;
    tracer.note("builder.signals", st.total_signals() as f64);
    tracer.note("builder.agent_success_frac", st.success_rate());
    let mut plan = None;
    for _ in 0..COSTLY {
        plan = Some(tracer.span("lower", || lower_pooled(&pattern, &graph, pool)));
    }
    let plan = plan.expect("lowered");
    for _ in 0..COSTLY {
        if tracer.span("plan.validate", || plan.validate(&graph)).is_err() {
            ledger.fail();
        }
    }
    tracer.note("plan.msgs", plan.message_count() as f64);
    let max_rank_bytes = plan
        .per_rank
        .iter()
        .map(|phases| {
            phases.iter().flat_map(|ph| &ph.sends).map(|m| m.blocks.len() * input.m).sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    tracer.note("plan.max_rank_bytes", max_rank_bytes as f64);

    // plan cache: one miss, then hits
    if comm.plan_shared(Algorithm::DistanceHalving).is_err() {
        ledger.fail();
    }
    for _ in 0..CHEAP {
        if tracer
            .span("plan_cache.lookup", || comm.plan_shared(Algorithm::DistanceHalving))
            .is_err()
        {
            ledger.fail();
        }
    }
    if let Some(cache) = comm.plan_cache() {
        let st = cache.stats();
        tracer.note("plan_cache.hits", st.hits as f64);
        tracer.note("plan_cache.misses", st.misses as f64);
    }

    // autotune: one miss on a fresh communicator, then memo hits
    let fresh = DistGraphComm::create_adjacent(graph.clone(), layout.clone()).expect("layout fits");
    if tracer.span("autotune.miss", || fresh.resolve_algorithm(Algorithm::Auto)).is_err() {
        ledger.fail();
    }
    tracer.note("autotune.sims", fresh.tuner_sims() as f64);
    for _ in 0..CHEAP {
        if tracer.span("autotune.hit", || fresh.resolve_algorithm(Algorithm::Auto)).is_err() {
            ledger.fail();
        }
    }

    // simnet
    let lens = vec![input.m; n];
    for _ in 0..COSTLY * 2 {
        if tracer
            .span("simnet.simulate", || simulate_v(&plan, layout, &lens, &SimCost::niagara()))
            .is_err()
        {
            ledger.fail();
        }
    }

    // arena
    for _ in 0..COSTLY * 2 {
        if tracer.span("arena.layout", || ArenaLayout::for_plan(&plan, &graph)).is_err() {
            ledger.fail();
        }
    }
    let mut arena = BlockArena::new();
    if arena.prepare(&plan, &graph).is_err() {
        ledger.fail();
    }
    for _ in 0..CHEAP {
        if tracer.span("arena.prepare", || arena.prepare(&plan, &graph)).is_err() {
            ledger.fail();
        }
    }

    // virtual executor on a warm arena
    let opts = ExecOptions::new();
    for _ in 0..CHEAP / 2 {
        let out = tracer
            .span("exec_virtual.run", || Virtual.run(&plan, &graph, &payloads, &mut arena, &opts));
        check_exec(ledger, out.map(|o| o.rbufs), want);
    }
    tracer.note("arena.reallocs", arena.reallocations() as f64);
    let counts = CountingRecorder::new(n);
    let out =
        Virtual.run(&plan, &graph, &payloads, &mut arena, &ExecOptions::new().recorder(&counts));
    check_exec(ledger, out.map(|o| o.rbufs), want);
    let c = counts.totals();
    tracer.note("exec_virtual.bytes", c.bytes_recvd as f64);
    tracer.note("exec_virtual.copies", c.copies as f64);

    // threaded executor
    let mut tarena = BlockArena::new();
    for _ in 0..COSTLY {
        let out = tracer.span("exec_threaded.run", || {
            Threaded.run(&plan, &graph, &payloads, &mut tarena, &opts)
        });
        check_exec(ledger, out.map(|o| o.rbufs), want);
    }
    let counts = CountingRecorder::new(n);
    let out =
        Threaded.run(&plan, &graph, &payloads, &mut tarena, &ExecOptions::new().recorder(&counts));
    check_exec(ledger, out.map(|o| o.rbufs), want);
    tracer.note("exec_threaded.msgs", counts.totals().msgs_sent as f64);

    // combining engine: allreduce Sum/u8 through the one-call API
    let red = Reduction::SUM_U8;
    let op = nhood_core::CollectiveOp::Allreduce(red);
    let want_red = digest(&reference(op, &graph, &payloads));
    for _ in 0..COSTLY * 2 {
        let out = tracer.span("collective.combine", || {
            comm.collective(&CollectiveRequest::allreduce(&payloads, red))
        });
        check_exec(ledger, out.map(|o| o.rbufs), want_red);
    }
    let counts = CountingRecorder::new(n);
    let out = comm.collective(&CollectiveRequest::allreduce(&payloads, red).recorder(&counts));
    check_exec(ledger, out.map(|o| o.rbufs), want_red);
    let c = counts.totals();
    tracer.note("collective.msgs", c.msgs_sent as f64);
    tracer.note("collective.bytes", c.bytes_sent as f64);

    // repair: single-edge edits on an armed communicator
    let mut churned = comm.clone();
    if churned.mutate(&[], &[]).is_err() {
        ledger.fail();
    }
    let mut g = graph.clone();
    for _ in 0..COSTLY + 1 {
        let (added, removed) = draw_churn(&g, &mut rng);
        g = apply_churn(&g, added, removed);
        match tracer.span("repair.mutate", || churned.mutate(&[added], &[removed])) {
            Ok(r) => {
                ledger.ok();
                tracer.note("repair.damage_frac", r.damage_frac);
                tracer.note("repair.full_rebuild", f64::from(u8::from(r.full_rebuild)));
            }
            Err(_) => ledger.fail(),
        }
    }

    // service: one tenant on this graph, a short gather-only open loop
    let spec = ScheduleSpec {
        rate_rps: 100.0,
        horizon_us: Duration::from_millis(400).as_micros() as u64,
        mixes: vec![Mix::GATHER],
        churn: None,
        ..service::spec(Duration::ZERO)
    };
    let sched = generate(&spec, std::slice::from_ref(&graph), seed);
    let mut svc = service::register(std::slice::from_ref(&graph));
    open_loop(&mut svc, sched, tracer, ledger);
}

fn check_exec<E>(ledger: &mut Ledger, out: Result<Vec<Vec<u8>>, E>, want: u64) {
    match out {
        Ok(rbufs) => {
            ledger.check_digest(digest(&rbufs), want);
        }
        Err(_) => ledger.fail(),
    }
}
