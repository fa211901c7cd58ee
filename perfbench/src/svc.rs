//! Drives the collective service: the open loop over a pre-generated
//! [`Schedule`], and the closed-loop capacity drive of the same stream.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use nhood_service::traffic::{drive_stream, GenRequest};
use nhood_service::{Outcome, Service, SubmitRequest};

use crate::schedule::Schedule;
use crate::trace::Tracer;
use crate::verify::{digest, Ledger};

/// What one open-loop drive measured.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Completed requests' latency from intended arrival, µs.
    pub latency_us: Vec<f64>,
    /// How late the generator submitted each request, µs.
    pub late_us: Vec<f64>,
    /// Wall time of each `Service::churn`, µs.
    pub churn_us: Vec<f64>,
}

/// Runs the open loop: events are submitted in schedule order when due,
/// stamped with their intended arrival; a churn event first drains the
/// queue so every request runs on the topology the schedule assigned it.
/// Completions are checked against the schedule's expected digests
/// between reactor ticks.
pub fn open_loop(
    svc: &mut Service,
    sched: Schedule,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> OpenLoop {
    svc.reset_metrics();
    let mut out = OpenLoop::default();
    let Schedule { mut arrivals, churns } = sched;
    let want: Vec<u64> = arrivals.iter().map(|a| a.want).collect();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let (mut ai, mut ci) = (0usize, 0usize);
    let epoch = Instant::now();
    loop {
        let now_us = epoch.elapsed().as_secs_f64() * 1e6;
        loop {
            let next_a = arrivals.get(ai).map(|a| a.at_us);
            let next_c = churns.get(ci).map(|c| c.at_us);
            let churn_first = match (next_a, next_c) {
                (_, None) => false,
                (None, Some(_)) => true,
                (Some(a), Some(c)) => c <= a,
            };
            if churn_first {
                let c = &churns[ci];
                if c.at_us as f64 > now_us {
                    break;
                }
                svc.drain();
                settle(svc, &by_id, &want, &mut out, ledger);
                let t0 = Instant::now();
                let res =
                    tracer.span("repair.mutate", || svc.churn(c.tenant, &[c.added], &[c.removed]));
                out.churn_us.push(t0.elapsed().as_secs_f64() * 1e6);
                match res {
                    Ok(rep) => {
                        ledger.ok();
                        tracer.note("repair.damage_frac", rep.damage_frac);
                        tracer.note("repair.full_rebuild", f64::from(u8::from(rep.full_rebuild)));
                    }
                    Err(_) => ledger.fail(),
                }
                ci += 1;
            } else if let Some(at) = next_a {
                if at as f64 > now_us {
                    break;
                }
                let a = &mut arrivals[ai];
                let arrived = epoch + Duration::from_micros(a.at_us);
                let req = SubmitRequest {
                    op: a.op,
                    payloads: std::mem::take(&mut a.payloads),
                    sizes: None,
                };
                out.late_us.push((epoch.elapsed().as_secs_f64() * 1e6 - a.at_us as f64).max(0.0));
                match svc.submit_request_at(a.tenant, req, arrived) {
                    Ok(id) => {
                        by_id.insert(id, ai);
                    }
                    Err(_) => ledger.fail(),
                }
                ai += 1;
            } else {
                break;
            }
        }
        let finished =
            if svc.pending() > 0 { tracer.span("service.tick", || svc.tick()) } else { svc.tick() };
        settle(svc, &by_id, &want, &mut out, ledger);
        let done = ai == arrivals.len() && ci == churns.len();
        if done && svc.pending() == 0 {
            break;
        }
        if finished == 0 && svc.pending() == 0 {
            let next = [arrivals.get(ai).map(|a| a.at_us), churns.get(ci).map(|c| c.at_us)]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(0) as f64;
            let wait_us = next - epoch.elapsed().as_secs_f64() * 1e6;
            if wait_us > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait_us.min(1000.0) * 1e-6));
            }
        }
    }
    let rep = svc.report();
    if tracer.is_on() {
        let st = rep.stats;
        tracer.note("service.busy_frac", rep.busy.as_secs_f64() / rep.wall.as_secs_f64().max(1e-9));
        tracer.note("service.batch_mean", st.completed as f64 / st.batches.max(1) as f64);
        tracer.note("service.reject_frac", st.rejected as f64 / st.submitted.max(1) as f64);
        for &l in &out.late_us {
            tracer.note("bench.gen_late_us", l);
        }
    }
    out
}

/// Checks every completion handed back since the last call.
fn settle(
    svc: &mut Service,
    by_id: &HashMap<u64, usize>,
    want: &[u64],
    out: &mut OpenLoop,
    ledger: &mut Ledger,
) {
    for c in svc.take_completions() {
        let idx = by_id[&c.id];
        match (&c.outcome, &c.output) {
            (Outcome::Completed { .. }, Some(bufs)) => {
                ledger.check_digest(digest(bufs), want[idx]);
                out.latency_us.push(c.latency_us as f64);
            }
            _ => ledger.fail(),
        }
    }
}

/// What the closed-loop drive measured.
#[derive(Clone, Debug, Default)]
pub struct ClosedLoop {
    /// Requests completed with verified output.
    pub completed: f64,
    /// Verified output bytes.
    pub bytes: f64,
    /// Wall time of the drive, seconds.
    pub wall_s: f64,
}

/// Pushes `stream` through `svc` as fast as admission allows
/// (`traffic::drive_stream`) and checks every output against `want[i]`
/// (request `i` is the `i`-th admitted in this call).
pub fn closed_loop(
    svc: &mut Service,
    stream: &[GenRequest],
    want: &[(u64, usize)],
    ledger: &mut Ledger,
) -> ClosedLoop {
    svc.reset_metrics();
    let t0 = Instant::now();
    let finished = drive_stream(svc, stream);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = ClosedLoop { wall_s, ..ClosedLoop::default() };
    let comps = svc.take_completions();
    // Ids are consecutive per admission; this call's first is the smallest.
    let base = comps.iter().map(|c| c.id).min().unwrap_or(0);
    for c in comps {
        let idx = (c.id - base) as usize;
        match (&c.outcome, &c.output, want.get(idx)) {
            (Outcome::Completed { .. }, Some(bufs), Some(&(w, bytes))) => {
                if ledger.check_digest(digest(bufs), w) {
                    out.completed += 1.0;
                    out.bytes += bytes as f64;
                }
            }
            _ => ledger.fail(),
        }
    }
    for _ in finished..stream.len() {
        ledger.fail();
    }
    out
}
