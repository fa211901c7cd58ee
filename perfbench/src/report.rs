//! Metric names, the end-to-end metrics computed from a workload's
//! samples, and the one-line JSON result.

use std::fmt::Write as _;

use crate::stats::{block_percentile, median, BLOCK};

/// The end-to-end metrics, in print order: (name, unit, lower is
/// better). The unit `us-model` marks a model output, not a measured time.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", true),
    ("step_p50_us", "us", true),
    ("goodput_mb_s", "MB/s", false),
    ("capacity_rps", "1/s", false),
    ("mutate_p50_us", "us", true),
    ("model_makespan_us", "us-model", true),
    ("peak_rss_mb", "MB", true),
];

/// The percentile of the step tail.
pub const STEP_TAIL: f64 = 95.0;

/// The step tail: reported by the traced run, beside the per-layer
/// metrics, with no bound. On a shared host a p95 of the step times
/// measures the host's preemption stalls as much as the program, so
/// its run-to-run spread is too wide to gate on.
pub const TAIL: (&str, &str, bool) = ("tail.step_p95_us", "us", true);

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a workload run measured, before it is reduced to metrics.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Seconds per fresh construction up to the first verified output.
    pub setup_s: Vec<f64>,
    /// µs per step (the workload's timed unit of work).
    pub step_us: Vec<f64>,
    /// Throughput records in time order: (verified operations, verified
    /// receive bytes, wall seconds), one per step or per closed-loop chunk.
    pub tput: Vec<(f64, f64, f64)>,
    /// µs per single-edge churn event (mutate plus the next verified collective).
    pub mutate_us: Vec<f64>,
    /// Simulated makespan(s) of the executed plan(s), µs.
    pub model_us: Vec<f64>,
    /// Process peak RSS at the end of the run, MB.
    pub peak_rss_mb: f64,
}

impl Samples {
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [
            median(&self.setup_s),
            median(&self.step_us),
            self.rate(|&(_, bytes, _)| bytes) / 1e6,
            self.rate(|&(ops, _, _)| ops),
            median(&self.mutate_us),
            median(&self.model_us),
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric { name: name.to_string(), unit, value })
            .collect()
    }
}

impl Samples {
    /// The [`TAIL`] metric: the median over blocks of the steps' [`STEP_TAIL`]
    /// percentile (see [`block_percentile`]).
    pub fn tail(&self) -> Metric {
        let value = block_percentile(&self.step_us, STEP_TAIL, BLOCK);
        Metric { name: TAIL.0.to_string(), unit: TAIL.1, value }
    }

    /// Median, over up to [`RATE_GROUPS`] consecutive groups of
    /// throughput records, of each group's Σ`what` / Σwall.
    fn rate(&self, what: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
        let n = self.tput.len();
        let groups = n.min(RATE_GROUPS);
        let rates: Vec<f64> = (0..groups)
            .map(|k| {
                let g = &self.tput[k * n / groups..(k + 1) * n / groups];
                g.iter().map(&what).sum::<f64>() / g.iter().map(|r| r.2).sum::<f64>()
            })
            .collect();
        median(&rates)
    }
}

/// Groups the throughput records are split into.
pub const RATE_GROUPS: usize = 8;

/// Peak resident set size of this process so far, MB (0 where unsupported).
pub fn peak_rss_mb() -> f64 {
    nhood_cluster::rss::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}
