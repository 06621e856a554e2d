//! The service's unified metrics registry: named counters, gauges, and
//! log-bucket latency histograms behind one scrape point.
//!
//! The offline telemetry layer ([`crate::telemetry`]) answers "where did
//! *this run's* time go"; this module answers the live-serving question
//! "where is the *service's* time going right now". A
//! [`crate::service::WavefrontService`] owns one [`Metrics`] registry;
//! the dispatcher feeds per-stage job latencies into it, admission
//! rejections and kernel fallbacks bump labeled counters, and the
//! point-in-time `ServiceStats`/`TenantStats` counters are synced into
//! it at scrape time so one export carries everything. Two formats come
//! out of the same snapshot: a Prometheus-style text exposition
//! ([`Metrics::prometheus`]) and a JSON dump ([`Metrics::to_json`]) —
//! both are served over the wire by the `METRICS` frame
//! and rendered by `wlc top`.
//!
//! ## Cost model
//!
//! Handles ([`Counter`], [`Gauge`], [`HistogramHandle`]) are cheap
//! clones of `Arc`'d atomics; observing is lock-free and allocation-free
//! (one atomic add for counters/gauges, two adds for a histogram
//! sample). The registry mutex is taken only to *register* a new name or
//! to scrape. A registry built disabled hands out no-op handles, so the
//! metrics-off path costs one branch per observation; `perfbench`
//! reports the enabled path against it as
//! `pipeline.service.metrics_overhead_ratio`.
//!
//! Histograms bucket by powers of two of nanoseconds (64 buckets cover
//! 1 ns to ~584 years), so a percentile query returns the *bounds* of
//! the bucket holding the nearest-rank sample: the exact percentile is
//! provably inside `[lo, hi)`. The property tests in
//! `tests/observability.rs` pin that bracketing against exact
//! percentiles computed from raw samples.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wavefront_core::kernel::{FallbackReason, LaneCause};

use crate::telemetry::json::JsonObj;

/// Number of power-of-two latency buckets (bucket 0 holds exact zeros;
/// bucket `i` holds `[2^(i-1), 2^i)` nanoseconds).
const HIST_BUCKETS: usize = 64;

/// Shared storage of one registered histogram.
#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    fn record_ns(&self, ns: u64) {
        let idx = if ns == 0 {
            0
        } else {
            (HIST_BUCKETS as u32 - ns.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Lower/upper bound (seconds) of the bucket holding the
    /// nearest-rank sample of quantile `q`. `None` when empty.
    fn quantile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        // Nearest-rank, matching `telemetry::Histogram`: the k-th
        // smallest sample with k = ceil(q * count), clamped to [1, n].
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_bounds_seconds(i));
            }
        }
        Some(bucket_bounds_seconds(HIST_BUCKETS - 1))
    }
}

/// `[lo, hi)` in seconds of bucket `i`.
fn bucket_bounds_seconds(i: usize) -> (f64, f64) {
    if i == 0 {
        return (0.0, 0.0);
    }
    let lo = (1u128 << (i - 1)) as f64 / 1e9;
    let hi = (1u128 << i) as f64 / 1e9;
    (lo, hi)
}

/// A monotonically increasing counter handle. No-op when the registry
/// is disabled.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A point-in-time gauge handle. No-op when the registry is disabled.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A latency histogram handle (power-of-two nanosecond buckets). No-op
/// when the registry is disabled.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<HistogramCore>>);

impl HistogramHandle {
    /// Record one latency in seconds (negative values clamp to 0).
    pub fn observe_seconds(&self, seconds: f64) {
        self.observe_ns((seconds.max(0.0) * 1e9) as u64);
    }

    /// Record one latency in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        if let Some(core) = &self.0 {
            core.record_ns(ns);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of all recorded latencies, seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| c.sum_ns.load(Ordering::Relaxed) as f64 / 1e9)
    }

    /// Bounds (seconds) of the bucket holding the nearest-rank sample
    /// of quantile `q`; the exact sample percentile lies in `[lo, hi)`
    /// (or exactly 0 for the zero bucket). `None` when empty or
    /// disabled.
    pub fn quantile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        self.0.as_ref()?.quantile_bounds(q)
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: Vec<(String, Arc<AtomicU64>)>,
    gauges: Vec<(String, Arc<AtomicI64>)>,
    histograms: Vec<(String, Arc<HistogramCore>)>,
}

/// The central metrics registry of one service: get-or-register named
/// instruments, scrape them all in one pass.
///
/// Names follow the Prometheus convention, with any labels baked into
/// the name string (e.g.
/// `wavefront_stage_seconds{tenant="acme",stage="queue"}`) — the
/// registry itself treats names as opaque keys.
#[derive(Debug)]
pub struct Metrics {
    enabled: bool,
    inner: Mutex<Registry>,
}

impl Metrics {
    /// A registry. When `enabled` is false every handle it hands out is
    /// a no-op and the exports are empty.
    pub fn new(enabled: bool) -> Metrics {
        Metrics { enabled, inner: Mutex::new(Registry::default()) }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter(None);
        }
        let mut r = self.inner.lock().unwrap();
        if let Some((_, c)) = r.counters.iter().find(|(n, _)| n == name) {
            return Counter(Some(Arc::clone(c)));
        }
        let c = Arc::new(AtomicU64::new(0));
        r.counters.push((name.to_string(), Arc::clone(&c)));
        Counter(Some(c))
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge(None);
        }
        let mut r = self.inner.lock().unwrap();
        if let Some((_, g)) = r.gauges.iter().find(|(n, _)| n == name) {
            return Gauge(Some(Arc::clone(g)));
        }
        let g = Arc::new(AtomicI64::new(0));
        r.gauges.push((name.to_string(), Arc::clone(&g)));
        Gauge(Some(g))
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        if !self.enabled {
            return HistogramHandle::default();
        }
        let mut r = self.inner.lock().unwrap();
        let core = if let Some((_, h)) = r.histograms.iter().find(|(n, _)| n == name) {
            Arc::clone(h)
        } else {
            let h = Arc::new(HistogramCore::new());
            r.histograms.push((name.to_string(), Arc::clone(&h)));
            h
        };
        HistogramHandle(Some(core))
    }

    /// Set a counter to an externally tracked value (scrape-time sync of
    /// the coherent `ServiceStats` snapshot).
    pub fn set_counter(&self, name: &str, v: u64) {
        if let Counter(Some(c)) = self.counter(name) {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Prometheus-style text exposition: one `name value` line per
    /// counter and gauge; histograms export `_count`, `_sum_seconds`,
    /// and `_p50`/`_p90`/`_p99` lines (upper bound of the quantile's
    /// bucket, seconds). Lines are sorted by name for stable diffs.
    pub fn prometheus(&self) -> String {
        let r = self.inner.lock().unwrap();
        let mut lines: Vec<String> = Vec::new();
        for (name, c) in &r.counters {
            lines.push(format!("{name} {}", c.load(Ordering::Relaxed)));
        }
        for (name, g) in &r.gauges {
            lines.push(format!("{name} {}", g.load(Ordering::Relaxed)));
        }
        for (name, h) in &r.histograms {
            let (base, labels) = split_labels(name);
            lines.push(format!("{base}_count{labels} {}", h.count.load(Ordering::Relaxed)));
            lines.push(format!(
                "{base}_sum_seconds{labels} {:.9}",
                h.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
            ));
            for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                if let Some((_, hi)) = h.quantile_bounds(q) {
                    lines.push(format!("{base}_{tag}{labels} {hi:.9}"));
                }
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// The registry as one JSON object:
    /// `{"counters":[{"name":..,"value":..},..],"gauges":[..],
    /// "histograms":[{"name":..,"count":..,"sum_seconds":..,
    /// "p50":..,"p90":..,"p99":..},..]}` (quantiles are the upper
    /// bound of the quantile's bucket, seconds; absent when empty).
    pub fn to_json(&self) -> String {
        let r = self.inner.lock().unwrap();
        let counters: Vec<String> = r
            .counters
            .iter()
            .map(|(n, c)| {
                JsonObj::new()
                    .str("name", n)
                    .uint("value", c.load(Ordering::Relaxed))
                    .finish()
            })
            .collect();
        let gauges: Vec<String> = r
            .gauges
            .iter()
            .map(|(n, g)| {
                JsonObj::new()
                    .str("name", n)
                    .num("value", g.load(Ordering::Relaxed) as f64)
                    .finish()
            })
            .collect();
        let histograms: Vec<String> = r
            .histograms
            .iter()
            .map(|(n, h)| {
                let mut obj = JsonObj::new()
                    .str("name", n)
                    .uint("count", h.count.load(Ordering::Relaxed))
                    .num("sum_seconds", h.sum_ns.load(Ordering::Relaxed) as f64 / 1e9);
                for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                    if let Some((_, hi)) = h.quantile_bounds(q) {
                        obj = obj.num(tag, hi);
                    }
                }
                obj.finish()
            })
            .collect();
        JsonObj::new()
            .arr("counters", counters)
            .arr("gauges", gauges)
            .arr("histograms", histograms)
            .finish()
    }
}

/// Split `name{labels}` into (`name`, `{labels}`) so histogram
/// sub-series keep their labels after the `_count`/`_p99` suffix.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Stable label value for a kernel fallback reason, used in the
/// `wavefront_kernel_fallback_runs_total{reason="..."}` counter names.
pub(crate) fn fallback_label(reason: FallbackReason) -> &'static str {
    match reason {
        FallbackReason::Buffered => "buffered",
        FallbackReason::Contracted => "contracted",
        FallbackReason::RegisterPressure => "register_pressure",
        FallbackReason::TapeTooLong => "tape_too_long",
        FallbackReason::UnsupportedExpr => "unsupported_expr",
        FallbackReason::LaneUnsupported(LaneCause::Carried) => "lane_carried",
        FallbackReason::LaneUnsupported(LaneCause::WideTape) => "lane_wide_tape",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::JsonValue;

    #[test]
    fn disabled_registry_hands_out_noops_and_exports_nothing() {
        let m = Metrics::new(false);
        let c = m.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        let h = m.histogram("h");
        h.observe_ns(100);
        assert_eq!(h.count(), 0);
        assert!(h.quantile_bounds(0.5).is_none());
        assert_eq!(m.prometheus(), "");
        assert_eq!(m.to_json(), "{\"counters\":[],\"gauges\":[],\"histograms\":[]}");
    }

    #[test]
    fn same_name_shares_storage() {
        let m = Metrics::new(true);
        m.counter("jobs").add(3);
        m.counter("jobs").add(4);
        assert_eq!(m.counter("jobs").get(), 7);
        m.gauge("depth").set(5);
        assert_eq!(m.gauge("depth").get(), 5);
    }

    #[test]
    fn histogram_buckets_bracket_samples() {
        let m = Metrics::new(true);
        let h = m.histogram("lat");
        // 1000 samples at 1000 ns: every quantile's bucket is
        // [512, 1024) ns.
        for _ in 0..1000 {
            h.observe_ns(1000);
        }
        for q in [0.5, 0.9, 0.99] {
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(lo <= 1000e-9 && 1000e-9 < hi, "q={q}: [{lo},{hi})");
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum_seconds() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn zero_samples_land_in_the_zero_bucket() {
        let m = Metrics::new(true);
        let h = m.histogram("z");
        h.observe_ns(0);
        assert_eq!(h.quantile_bounds(0.5), Some((0.0, 0.0)));
    }

    #[test]
    fn exports_are_well_formed() {
        let m = Metrics::new(true);
        m.counter("wavefront_jobs_total{tenant=\"a\"}").add(2);
        m.gauge("wavefront_queue_depth{tenant=\"a\"}").set(1);
        let h = m.histogram("wavefront_stage_seconds{tenant=\"a\",stage=\"queue\"}");
        h.observe_seconds(0.001);
        let text = m.prometheus();
        assert!(text.contains("wavefront_jobs_total{tenant=\"a\"} 2"), "{text}");
        assert!(
            text.contains("wavefront_stage_seconds_p99{tenant=\"a\",stage=\"queue\"}"),
            "{text}"
        );
        let v = JsonValue::parse(&m.to_json()).expect("registry dump is valid JSON");
        let hists = v.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists.len(), 1);
        assert!(hists[0].get("p50").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(hists[0].get("count").unwrap().as_f64(), Some(1.0));
    }
}
