//! The per-layer metrics of the traced run, each named by its module,
//! and the end-to-end metric each should move.

use crate::report::{Metric, END_TO_END};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// How a per-layer metric is derived from the traced run.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Median inclusive duration of the spans with this name, µs.
    SpanMedian(&'static str),
    /// Median of the samples noted under this name.
    NoteMedian(&'static str),
    /// Mean of the samples noted under this name.
    NoteMean(&'static str),
    /// p99 of the samples noted under this name.
    NoteP99(&'static str),
    /// Σ first / (Σ first + Σ second) over two notes.
    Share(&'static str, &'static str),
}

/// One per-layer metric: name (prefixed by its layer's module), unit,
/// direction and derivation.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a lower value is better.
    pub lower: bool,
    /// Derivation.
    pub source: Source,
}

const fn lm(name: &'static str, unit: &'static str, source: Source) -> LayerMetric {
    LayerMetric { name, unit, lower: true, source }
}

const fn hi(name: &'static str, unit: &'static str, source: Source) -> LayerMetric {
    LayerMetric { name, unit, lower: false, source }
}

use Source::*;

/// Every per-layer metric, in print order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    lm("topology.gen_us", "us", SpanMedian("topology.gen")),
    lm("builder.build_us", "us", SpanMedian("builder.build")),
    lm("builder.signals", "count", NoteMedian("builder.signals")),
    hi("builder.agent_success_frac", "ratio", NoteMedian("builder.agent_success_frac")),
    lm("lower.us", "us", SpanMedian("lower")),
    lm("plan.validate_us", "us", SpanMedian("plan.validate")),
    lm("plan.msgs", "count", NoteMedian("plan.msgs")),
    lm("plan.max_rank_bytes", "bytes", NoteMedian("plan.max_rank_bytes")),
    lm("autotune.miss_us", "us", SpanMedian("autotune.miss")),
    lm("autotune.hit_us", "us", SpanMedian("autotune.hit")),
    lm("autotune.sims", "count", NoteMedian("autotune.sims")),
    lm("simnet.simulate_us", "us", SpanMedian("simnet.simulate")),
    lm("plan_cache.lookup_us", "us", SpanMedian("plan_cache.lookup")),
    hi("plan_cache.hit_frac", "ratio", Share("plan_cache.hits", "plan_cache.misses")),
    lm("arena.layout_us", "us", SpanMedian("arena.layout")),
    lm("arena.prepare_us", "us", SpanMedian("arena.prepare")),
    lm("arena.reallocs", "count", NoteMedian("arena.reallocs")),
    lm("exec_virtual.run_us", "us", SpanMedian("exec_virtual.run")),
    lm("exec_virtual.bytes", "bytes", NoteMedian("exec_virtual.bytes")),
    lm("exec_virtual.copies", "count", NoteMedian("exec_virtual.copies")),
    lm("exec_threaded.run_us", "us", SpanMedian("exec_threaded.run")),
    lm("exec_threaded.msgs", "count", NoteMedian("exec_threaded.msgs")),
    lm("collective.combine_us", "us", SpanMedian("collective.combine")),
    lm("collective.msgs", "count", NoteMedian("collective.msgs")),
    lm("collective.bytes", "bytes", NoteMedian("collective.bytes")),
    lm("repair.mutate_us", "us", SpanMedian("repair.mutate")),
    lm("repair.damage_frac", "ratio", NoteMean("repair.damage_frac")),
    lm("repair.full_rebuild_frac", "ratio", NoteMean("repair.full_rebuild")),
    lm("service.busy_frac", "ratio", NoteMedian("service.busy_frac")),
    hi("service.batch_mean", "count", NoteMedian("service.batch_mean")),
    lm("service.tick_us", "us", SpanMedian("service.tick")),
    lm("service.reject_frac", "ratio", NoteMedian("service.reject_frac")),
    lm("bench.gen_late_p99_us", "us", NoteP99("bench.gen_late_us")),
];

/// The per-layer metrics of a traced run, and the names of those it
/// could not measure (no span or note recorded).
pub fn measure(tracer: &Tracer) -> (Vec<Metric>, Vec<&'static str>) {
    let mut metrics = Vec::new();
    let mut uncovered = Vec::new();
    for m in LAYER_METRICS {
        let samples = match m.source {
            SpanMedian(l) => tracer.durations_us(l),
            NoteMedian(k) | NoteMean(k) | NoteP99(k) => tracer.notes(k),
            Share(a, b) => {
                let (a, b) = (tracer.notes(a), tracer.notes(b));
                if a.is_empty() && b.is_empty() {
                    Vec::new()
                } else {
                    let (a, b): (f64, f64) = (a.iter().sum(), b.iter().sum());
                    vec![a / (a + b).max(1.0)]
                }
            }
        };
        if samples.is_empty() {
            uncovered.push(m.name);
        }
        let value = match m.source {
            SpanMedian(_) | NoteMedian(_) | Share(..) => median(&samples),
            NoteMean(_) => mean(&samples),
            NoteP99(_) => percentile(&samples, 99.0),
        };
        metrics.push(Metric { name: m.name.to_string(), unit: m.unit, value });
    }
    (metrics, uncovered)
}

/// Tracing overhead per end-to-end metric, as the share by which the
/// traced pass read worse than the untraced one (negative: better).
pub fn overhead(untraced: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(untraced.iter().zip(traced))
        .map(|(&(name, _, lower), (u, t))| Metric {
            name: format!("trace_overhead.{name}"),
            unit: "ratio",
            value: if lower { t.value / u.value - 1.0 } else { u.value / t.value - 1.0 },
        })
        .collect()
}
