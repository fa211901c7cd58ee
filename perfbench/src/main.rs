//! Command-line entry point of the benchmark; see the crate docs.

use std::process::ExitCode;
use std::time::Duration;

use nhood_perfbench::layers::{measure, overhead};
use nhood_perfbench::report::{result_json, Metric, STEP_TAIL};
use nhood_perfbench::stats::{highest_supported_percentile, samples_beyond};
use nhood_perfbench::trace::Tracer;
use nhood_perfbench::verify::Ledger;
use nhood_perfbench::{sweep, workloads};

/// Share of `--seconds` each pass of the traced run gets.
const TRACE_PASS_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(bad)?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad value {val:?} for {flag}"))?
            }
            "--trace" => {
                trace = val.parse::<u8>().map_err(|_| format!("bad value {val:?} for {flag}"))? != 0
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {:?}", workloads::NAMES));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        let kind = if m.unit.ends_with("-model") { "  [model, not measured speed]" } else { "" };
        eprintln!("  {:<32} {:>16.4} {}{kind}", m.name, m.value, m.unit);
    }
}

fn report_steps(label: &str, steps: usize) {
    let beyond = samples_beyond(steps, STEP_TAIL);
    eprintln!(
        "{label}: {steps} step samples, {beyond} beyond p{STEP_TAIL}; highest supported percentile: {}",
        highest_supported_percentile(steps).map_or("none".into(), |p| format!("p{p}"))
    );
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut ledger = Ledger::default();
    let metrics = if !args.trace {
        let samples =
            workloads::run(&args.workload, args.seed, budget, &Tracer::new(false), &mut ledger);
        report_steps(&args.workload, samples.step_us.len());
        let m = samples.metrics();
        print_table(&format!("{} seed {} (end to end)", args.workload, args.seed), &m);
        m
    } else {
        let pass = budget.mul_f64(TRACE_PASS_SHARE);
        nhood_cluster::rss::reset_peak_rss();
        let untraced =
            workloads::run(&args.workload, args.seed, pass, &Tracer::new(false), &mut ledger);
        let tracer = Tracer::new(true);
        nhood_cluster::rss::reset_peak_rss();
        let traced = workloads::run(&args.workload, args.seed, pass, &tracer, &mut ledger);
        report_steps("traced pass", traced.step_us.len());
        let input = workloads::sweep_input(&args.workload, args.seed);
        tracer.span("sweep", || sweep::run(&input, args.seed, &tracer, &mut ledger));
        let (u, t) = (untraced.metrics(), traced.metrics());
        print_table("untraced pass", &u);
        print_table("traced pass", &t);
        let (mut layer, uncovered) = measure(&tracer);
        layer.push(untraced.tail());
        layer.extend(overhead(&u, &t));
        print_table(&format!("{} seed {} (per layer)", args.workload, args.seed), &layer);
        if uncovered.is_empty() {
            eprintln!("every layer covered");
        } else {
            eprintln!("layers the traced run failed to cover: {}", uncovered.join(", "));
        }
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"uncovered\":[{}]",
            args.workload,
            args.seed,
            uncovered.iter().map(|u| format!("\"{u}\"")).collect::<Vec<_>>().join(",")
        );
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&header)))
        {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        layer
    };
    eprintln!(
        "fail_frac {:.6} ({} failed of {} attempted)",
        ledger.fail_frac(),
        ledger.failed,
        ledger.attempted
    );
    println!("{}", result_json(ledger.correct(), ledger.attempted, ledger.failed, &metrics));
    if ledger.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} output(s) differed from the reference", ledger.wrong);
        ExitCode::FAILURE
    }
}
