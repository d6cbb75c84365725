//! `BENCHMARK.json`, compiled in: the metric names, units, directions and
//! regression bounds every run and every `compare` goes by.
//!
//! The file at the repository root is the one definition. It is embedded
//! at build time, so the binary prints and compares exactly the names the
//! driver reads, and a self-test fails the moment the two drift apart.

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// One metric of the benchmark's contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name, as printed and as keyed in result files.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base's median the metric may worsen by before
    /// `compare` says "worse" (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Seconds one run measures for when `--seconds` is not given.
    pub run_seconds: f64,
    /// Metrics a user of the system sees (untraced pass).
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers (traced pass).
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &Json, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            better: match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            },
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// When the embedded file is not valid JSON — a build-time mistake.
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Spec {
            workloads: doc
                .get("workloads")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(10.0),
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
        }
    }

    /// The spec of metric `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
