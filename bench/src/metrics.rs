//! The names every performance claim on this repo is made with.
//!
//! They are written down once, in `BENCHMARK.json` at the repository
//! root, which is compiled in and read here: the workloads, the window
//! length, the end-to-end metrics with unit, direction and regression
//! bound, and the per-layer metrics.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use wavefront::pipeline::JsonValue;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
pub struct Metric {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// End-to-end only: the share by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, read.
pub struct Ledger {
    /// Timed seconds of one run at which claims are made. A shorter
    /// `--seconds` is for smoke use and is stamped `quick`.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// What the untraced run reports, and what a change is gated on.
    pub end_to_end: Vec<Metric>,
    /// What the traced run reports. A layer that is off a workload's
    /// path reports 0 there.
    pub per_layer: Vec<Metric>,
}

/// The compiled-in `BENCHMARK.json`. Panics if it does not have the
/// shape the acceptance driver prescribes: the file is part of this
/// package's source.
pub fn ledger() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(|| {
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        };
        let text = |m: &JsonValue, key: &str| {
            m.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry has no `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
                .collect()
        };
        Ledger {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("BENCHMARK.json has `run_seconds`"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

/// Per-layer values of one traced run, keyed by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Record `value` under `name`, which `BENCHMARK.json` must list as a
    /// per-layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            ledger().per_layer.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric of BENCHMARK.json"
        );
        self.0.insert(name.to_string(), value);
    }

    /// The recorded value, or 0 for a layer off this workload's path.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
