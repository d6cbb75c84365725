//! How a run's result is shown: a table for people, one JSON line for the
//! driver, and a fuller JSON record for `compare`.

use crate::json::Json;
use crate::run::Report;
use crate::spec::{MetricSpec, Spec};
use crate::stats::Measure;

/// The metrics this pass must print, per the contract.
pub fn expected<'a>(spec: &'a Spec, report: &Report) -> &'a [MetricSpec] {
    if report.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
}

/// Names the contract lists for this pass but the run did not produce, and
/// names the run produced that the contract does not list.
pub fn name_mismatches(spec: &Spec, report: &Report) -> Vec<String> {
    let expected = expected(spec, report);
    let mut out = Vec::new();
    for metric in expected {
        if !report.metrics.iter().any(|(name, _)| *name == metric.name) {
            out.push(format!("missing {}", metric.name));
        }
    }
    for (name, _) in &report.metrics {
        if !expected.iter().any(|metric| metric.name == *name) {
            out.push(format!("unlisted {name}"));
        }
    }
    out
}

/// The run's metrics in the contract's order, each rendered by `render`.
fn metrics_object(
    spec: &Spec,
    report: &Report,
    render: impl Fn(&MetricSpec, &Measure) -> Json,
) -> Json {
    Json::obj(expected(spec, report).iter().filter_map(|metric| {
        let (_, measure) = report
            .metrics
            .iter()
            .find(|(name, _)| *name == metric.name)?;
        Some((metric.name.clone(), render(metric, measure)))
    }))
}

/// The line the driver parses: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a value (every digit) and its unit.
pub fn driver_line(spec: &Spec, report: &Report) -> String {
    let metrics = metrics_object(spec, report, |metric, measure| {
        Json::obj([
            ("value", Json::Num(measure.value)),
            ("unit", Json::Str(metric.unit.clone())),
        ])
    });
    Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// The record `--out` appends and `compare` reads: the driver line's
/// content plus what a comparison needs to know about the run.
pub fn record(spec: &Spec, report: &Report) -> Json {
    let metrics = metrics_object(spec, report, |metric, measure| {
        Json::obj([
            ("value", Json::Num(measure.value)),
            ("unit", Json::Str(metric.unit.clone())),
            ("spread", Json::Num(measure.spread)),
            ("n", Json::Num(measure.n as f64)),
        ])
    });
    Json::obj([
        ("workload", Json::Str(report.workload.to_string())),
        ("seed", Json::Num(report.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(report.traced)))),
        ("pinned", Json::Bool(report.pinned)),
        ("nproc", Json::Num(report.nproc as f64)),
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ])
}

/// The table for people: every metric by name with unit, n and the
/// within-run spread, then the budget and any failure.
pub fn human(spec: &Spec, report: &Report) -> String {
    let mut out = format!(
        "== {} seed {} {} (nproc {}, solo {}) ==\n",
        report.workload,
        report.seed,
        if report.traced { "traced" } else { "untraced" },
        report.nproc,
        if report.pinned { "pinned" } else { "UNPINNED" },
    );
    out.push_str(&format!(
        "  {:<32} {:>16} {:<8} {:>12} {:>9}\n",
        "metric", "value", "unit", "iqr", "n"
    ));
    for (name, measure) in &report.metrics {
        let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
        out.push_str(&format!(
            "  {:<32} {:>16.4} {:<8} {:>12.4} {:>9}\n",
            name, measure.value, unit, measure.spread, measure.n
        ));
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    out.push_str(&format!(
        "  failed_share {failed_share} ({} failed or refused of {} attempted)\n",
        report.failed, report.attempted
    ));
    for error in &report.errors {
        out.push_str(&format!("  FAILED: {error}\n"));
    }
    if let Some(budget) = &report.budget {
        out.push_str(budget);
    }
    out
}
