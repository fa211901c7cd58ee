//! Self-tests of the benchmark's own rules: the percentile rule, failure
//! accounting, schedule determinism and the result line.

use std::time::Duration;

use nhood_cluster::ClusterLayout;
use nhood_core::exec::virtual_exec::reference_allgather;
use nhood_core::{CollectiveRequest, DistGraphComm};
use nhood_perfbench::report::{result_json, Metric};
use nhood_perfbench::schedule::{generate, generate_window};
use nhood_perfbench::stats::{
    highest_supported_percentile, percentile, samples_beyond, MIN_BEYOND,
};
use nhood_perfbench::verify::Ledger;
use nhood_perfbench::workloads::service;
use nhood_topology::random::erdos_renyi;

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(samples_beyond(200, 95.0), 10);
    assert_eq!(samples_beyond(199, 95.0), 9);
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    assert_eq!(highest_supported_percentile(1000), Some(99.0));
    assert_eq!(highest_supported_percentile(999), Some(95.0));
    assert_eq!(highest_supported_percentile(200), Some(95.0));
    assert_eq!(highest_supported_percentile(199), Some(90.0));
    assert_eq!(highest_supported_percentile(19), None);
    for n in 1..3000 {
        if let Some(p) = highest_supported_percentile(n) {
            assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&v, 95.0), 190.0);
}

#[test]
fn a_wrong_byte_counts_as_failed_and_makes_the_run_incorrect() {
    let g = erdos_renyi(32, 0.3, 5);
    let comm = DistGraphComm::create_adjacent(g.clone(), ClusterLayout::new(1, 2, 16)).unwrap();
    let payloads: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; 48]).collect();
    let want = reference_allgather(&g, &payloads);
    let mut out = comm.collective(&CollectiveRequest::allgather(&payloads)).unwrap().rbufs;

    let mut ledger = Ledger::default();
    assert!(ledger.check(&out, &want));
    let r = (0..32).find(|&r| !out[r].is_empty()).unwrap();
    out[r][7] ^= 1;
    assert!(!ledger.check(&out, &want));
    ledger.fail();
    assert_eq!((ledger.attempted, ledger.failed, ledger.wrong), (3, 2, 1));
    assert!(!ledger.correct());
    assert!((ledger.fail_frac() - 2.0 / 3.0).abs() < 1e-12);

    // A buffer with a byte missing is wrong too, not just a flipped one.
    let mut short = want.clone();
    short[r].pop();
    let mut fresh = Ledger::default();
    assert!(!fresh.check(&short, &want));
    assert_eq!(fresh.fail_frac(), 1.0);
}

#[test]
fn schedules_are_a_pure_function_of_the_seed() {
    let budget = Duration::from_millis(800);
    let a = service::schedule(7, budget);
    let b = service::schedule(7, budget);
    let c = service::schedule(8, budget);
    assert!(!a.arrivals.is_empty() && !a.churns.is_empty());
    assert_eq!(a.to_bytes(), b.to_bytes());
    assert_ne!(a.to_bytes(), c.to_bytes());
    assert!(a.arrivals.windows(2).all(|w| w[0].at_us <= w[1].at_us));

    // Windows hold exactly the whole schedule's events there.
    let spec = service::spec(budget);
    let graphs = service::graphs(7);
    let whole = generate(&spec, &graphs, 7);
    let half = spec.horizon_us / 2;
    let (lo, hi) = (
        generate_window(&spec, &graphs, 7, 0..half),
        generate_window(&spec, &graphs, 7, half..spec.horizon_us),
    );
    assert!(!lo.arrivals.is_empty() && !hi.churns.is_empty());
    let mut joined = lo.clone();
    for mut x in hi.arrivals {
        x.at_us += half;
        joined.arrivals.push(x);
    }
    for mut c in hi.churns {
        c.at_us += half;
        joined.churns.push(c);
    }
    assert_eq!(joined.to_bytes(), whole.to_bytes());
}

#[test]
fn result_line_has_the_four_keys() {
    let m = [Metric { name: "setup_s".into(), unit: "s", value: 0.5 }];
    let line = result_json(true, 3, 0, &m);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
         \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
}

#[test]
fn benchmark_json_lists_every_metric_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return; // the benchmark directory on its own has no manifest to check
    };
    for &(name, unit, lower) in nhood_perfbench::report::END_TO_END {
        let better = if lower { "lower" } else { "higher" };
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "{entry}");
    }
    let (tail, unit, _) = nhood_perfbench::report::TAIL;
    let layers = nhood_perfbench::layers::LAYER_METRICS.iter().map(|m| (m.name, m.unit, m.lower));
    for (name, unit, lower) in layers.chain([(tail, unit, true)]) {
        let better = if lower { "lower" } else { "higher" };
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(json.contains(&entry), "{entry}");
    }
    for w in nhood_perfbench::workloads::NAMES {
        assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")), "{w}");
    }
}
