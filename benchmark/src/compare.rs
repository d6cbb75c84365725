//! `compare A B`: one verdict per metric per workload between two sets of
//! runs, judged by the bounds in `BENCHMARK.json`.
//!
//! Each file holds one JSON record per line, as `--out` appends them; run
//! the suite several times into one file to make a set. For each workload
//! and end-to-end metric the base set's median is compared with the other
//! set's, every ratio printed with its base:
//!
//! * **worse** — the median moved against the metric's direction by more
//!   than the bound;
//! * **better** — it moved the other way by more than the bound;
//! * **within bound** — neither;
//! * **unresolved** — the run-to-run spread of either set is wider than the
//!   bound, so a move of that size cannot be told from noise — unless
//!   every run of one set beats every run of the other, which resolves it.
//!   `solo_*` rows are also unresolved when a set ran unpinned.
//!
//! Per-layer metrics carry no bound; their rows show the ratio only.

use crate::json::{self, Json};
use crate::spec::{Better, MetricSpec, Spec};
use crate::stats::{iqr, median};
use std::collections::BTreeMap;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Regressed by more than the bound.
    Worse,
    /// Moved by no more than the bound.
    WithinBound,
    /// Spread wider than the bound, or an unpinned `solo` phase.
    Unresolved,
    /// A per-layer metric: no bound to judge by.
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// Values of one metric on one workload across the runs of a set.
#[derive(Debug, Default, Clone)]
struct Series {
    values: Vec<f64>,
    /// Within-run spread of each run, used when the set has a single run.
    spreads: Vec<f64>,
    unpinned: bool,
}

impl Series {
    fn relative_spread(&self) -> f64 {
        let centre = median(&self.values).abs();
        if centre == 0.0 {
            return 0.0;
        }
        if self.values.len() >= 2 {
            iqr(&self.values) / centre
        } else {
            self.spreads.first().copied().unwrap_or(0.0) / centre
        }
    }
}

type Set = BTreeMap<(String, String), Series>;

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", number + 1))?;
        let pinned = record
            .get("pinned")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        for (name, metric) in record.get("metrics").map(Json::members).unwrap_or_default() {
            let Some(value) = metric.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let series = set.entry((workload.to_string(), name.clone())).or_default();
            series.values.push(value);
            series
                .spreads
                .push(metric.get("spread").and_then(Json::as_f64).unwrap_or(0.0));
            series.unpinned |= !pinned;
        }
    }
    Ok(set)
}

/// Judges one metric: `base` against `other`.
fn judge(metric: &MetricSpec, base: &Series, other: &Series) -> (Verdict, f64) {
    let (a, b) = (median(&base.values), median(&other.values));
    let ratio = if a != 0.0 { b / a } else { f64::NAN };
    let Some(bound) = metric.bound else {
        return (Verdict::Unbounded, ratio);
    };
    if metric.name.starts_with("solo_") && (base.unpinned || other.unpinned) {
        return (Verdict::Unresolved, ratio);
    }
    if a == b {
        return (Verdict::WithinBound, ratio);
    }
    // Positive when `other` is worse, as a share of the base.
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let all_other_worse = base.values.iter().all(|x| {
        other.values.iter().all(|y| match metric.better {
            Better::Lower => y > x,
            Better::Higher => y < x,
        })
    });
    let all_other_better = base.values.iter().all(|x| {
        other.values.iter().all(|y| match metric.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let noisy = base.relative_spread().max(other.relative_spread()) > bound;
    let verdict = if worse_by > bound {
        if noisy && !all_other_worse {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if -worse_by > bound {
        if noisy && !all_other_better {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (verdict, ratio)
}

/// Compares the sets in files `a` (the base) and `b`. Returns the rendered
/// table and whether any row is worse.
///
/// # Errors
///
/// When a file cannot be read or a line is not a result record.
pub fn compare(spec: &Spec, a: &str, b: &str) -> Result<(String, bool), String> {
    let (base, other) = (load(a)?, load(b)?);
    let mut out = format!(
        "compare: base {a}, other {b} (ratio = other median / base median)\n  {:<18} {:<30} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "other", "ratio", "spread", "bound"
    );
    let mut any_worse = false;
    for workload in &spec.workloads {
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            let key = (workload.clone(), metric.name.clone());
            let (Some(x), Some(y)) = (base.get(&key), other.get(&key)) else {
                continue;
            };
            let (verdict, ratio) = judge(metric, x, y);
            any_worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "  {:<18} {:<30} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>7}  {}\n",
                workload,
                metric.name,
                median(&x.values),
                median(&y.values),
                ratio,
                x.relative_spread().max(y.relative_spread()),
                metric.bound.map_or("-".to_string(), |b| format!("{b}")),
                verdict.label()
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "latency_ms".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: Some(bound),
        }
    }

    fn series(values: &[f64]) -> Series {
        Series {
            values: values.to_vec(),
            spreads: vec![0.0; values.len()],
            unpinned: false,
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_dominance() {
        let m = lower(0.10);
        let steady = series(&[1.00, 1.01, 0.99]);
        assert_eq!(
            judge(&m, &steady, &series(&[1.02, 1.03, 1.01])).0,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&m, &steady, &series(&[1.20, 1.21, 1.19])).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&m, &steady, &series(&[0.80, 0.81, 0.79])).0,
            Verdict::Better
        );
        // A spread wider than the bound hides a move of the bound's size ...
        let noisy = series(&[0.8, 1.0, 1.3]);
        assert_eq!(
            judge(&m, &noisy, &series(&[0.9, 1.15, 1.4])).0,
            Verdict::Unresolved
        );
        // ... unless every run of one set beats every run of the other.
        assert_eq!(
            judge(&m, &noisy, &series(&[1.5, 1.9, 2.4])).0,
            Verdict::Worse
        );
        let mut unpinned = steady.clone();
        unpinned.unpinned = true;
        let solo = MetricSpec {
            name: "solo_p50_ms".into(),
            ..lower(0.10)
        };
        assert_eq!(judge(&solo, &unpinned, &steady).0, Verdict::Unresolved);
    }
}
