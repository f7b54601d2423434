//! A small Prometheus-style metrics registry.
//!
//! Instruments are registered once (a mutex-guarded map keyed by metric
//! name + label pairs) and handed out as `Arc`s; after registration every
//! update is a relaxed atomic operation, so the hot path never touches the
//! registry lock. [`MetricsRegistry::render`] produces Prometheus text
//! exposition (`# HELP` / `# TYPE` groups, one sample line per series).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the counter to `total` unless it already reads more: how a
    /// scrape renders a running total its owner keeps. One atomic
    /// `fetch_max`, so racing scrapes cannot add the same growth twice
    /// and the series never goes backwards.
    #[inline]
    pub fn raise_to(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }
}

/// A gauge: a value that can go up and down. Stored as `f64` bits so it
/// can carry ratios as well as integral levels.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: cumulative-style exposition over a static list
/// of upper bounds. Observations are two relaxed atomic adds (bucket +
/// count) and a compare-exchange loop for the running sum.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending; an implicit `+Inf` bucket
    /// follows the last.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (non-cumulative; `render` prefixes).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
}

impl Histogram {
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let slot = self.bounds.partition_point(|&b| b < v);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper_bound, cumulative_count)` pairs, ending with `(+Inf, total)`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// One registered series: its label pairs and the instrument behind it.
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// All series sharing one metric name (and therefore one TYPE/HELP).
struct Family {
    help: String,
    kind: &'static str,
    series: Vec<(Vec<(String, String)>, Instrument)>,
}

impl Family {
    fn find(&self, labels: &[(String, String)]) -> Option<&Instrument> {
        self.series
            .iter()
            .find(|(l, _)| l == labels)
            .map(|(_, i)| i)
    }
}

/// Registry of metric families. Registration takes the lock; updates via
/// the returned `Arc`s never do. Registering the same name + labels twice
/// returns the existing instrument, so instrument bundles can be rebuilt
/// per session against a shared registry without double counting.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let labels = own(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = entry(&mut fams, name, help, "counter");
        if let Some(Instrument::Counter(c)) = fam.find(&labels) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        fam.series
            .push((labels, Instrument::Counter(Arc::clone(&c))));
        c
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let labels = own(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = entry(&mut fams, name, help, "gauge");
        if let Some(Instrument::Gauge(g)) = fam.find(&labels) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        fam.series.push((labels, Instrument::Gauge(Arc::clone(&g))));
        g
    }

    /// Get or create a histogram series with the given bucket bounds.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let labels = own(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = entry(&mut fams, name, help, "histogram");
        if let Some(Instrument::Histogram(h)) = fam.find(&labels) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(bounds));
        fam.series
            .push((labels, Instrument::Histogram(Arc::clone(&h))));
        h
    }

    /// Current value of a registered counter, if present (test/assertion
    /// convenience; production readers should scrape [`render`]).
    ///
    /// [`render`]: Self::render
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let labels = own(labels);
        let fams = self.families.lock().unwrap();
        match fams.get(name)?.find(&labels)? {
            Instrument::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Render Prometheus text exposition (version 0.0.4). Families come
    /// out in name order (the map is a `BTreeMap`) and series within a
    /// family in label order, so two scrapes of the same registry are
    /// line-for-line comparable regardless of registration order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fams = self.families.lock().unwrap();
        for (name, fam) in fams.iter() {
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind);
            let mut series: Vec<&(Vec<(String, String)>, Instrument)> = fam.series.iter().collect();
            series.sort_by(|(a, _), (b, _)| a.cmp(b));
            for (labels, inst) in series {
                match inst {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", label_set(labels, &[]), c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", label_set(labels, &[]), num(g.get()));
                    }
                    Instrument::Histogram(h) => {
                        for (bound, cum) in h.cumulative() {
                            let le = if bound.is_infinite() {
                                "+Inf".to_string()
                            } else {
                                num(bound)
                            };
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                label_set(labels, &[("le", &le)])
                            );
                        }
                        let _ =
                            writeln!(out, "{name}_sum{} {}", label_set(labels, &[]), num(h.sum()));
                        let _ =
                            writeln!(out, "{name}_count{} {}", label_set(labels, &[]), h.count());
                    }
                }
            }
        }
        out
    }
}

fn own(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn entry<'m>(
    fams: &'m mut BTreeMap<String, Family>,
    name: &str,
    help: &str,
    kind: &'static str,
) -> &'m mut Family {
    let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
        help: help.to_string(),
        kind,
        series: Vec::new(),
    });
    debug_assert_eq!(fam.kind, kind, "metric {name} re-registered as {kind}");
    fam
}

/// Format `{k="v",...}` from the series labels plus extras (histogram `le`),
/// or the empty string when there are none.
fn label_set(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

/// Compact float formatting: integral values without a trailing `.0` (so
/// counters-as-gauges read naturally), everything else via `{}`.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x_total", "help", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter_value("x_total", &[]), Some(5));
        c.raise_to(9);
        c.raise_to(7);
        assert_eq!(c.get(), 9, "raise_to never lowers a counter");
        let g = reg.gauge("depth", "help", &[("kind", "queue")]);
        g.set(3.0);
        assert_eq!(g.get(), 3.0);
    }

    #[test]
    fn reregistration_returns_same_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("dup_total", "h", &[("s", "0")]);
        let b = reg.counter("dup_total", "h", &[("s", "0")]);
        a.inc();
        assert_eq!(b.get(), 1, "same series, same atomic");
        let other = reg.counter("dup_total", "h", &[("s", "1")]);
        assert_eq!(other.get(), 0, "distinct labels, distinct series");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 56.05).abs() < 1e-9);
        let cum = h.cumulative();
        assert_eq!(cum[0], (0.1, 1));
        assert_eq!(cum[1], (1.0, 3));
        assert_eq!(cum[2], (10.0, 4));
        assert_eq!(cum[3].1, 5);
        assert!(cum[3].0.is_infinite());
    }

    #[test]
    fn boundary_observation_lands_in_its_bucket() {
        // `le` is inclusive: an observation exactly on a bound counts there.
        let h = Histogram::new(&[1.0]);
        h.observe(1.0);
        assert_eq!(h.cumulative()[0], (1.0, 1));
    }

    #[test]
    fn render_is_valid_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "things", &[("phase", "other")])
            .add(7);
        reg.gauge("b", "level", &[]).set(2.5);
        reg.histogram("lat_seconds", "latency", &[], &[0.1, 1.0])
            .observe(0.2);
        let text = reg.render();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total{phase=\"other\"} 7"));
        assert!(text.contains("b 2.5"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 0"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_seconds_count 1"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn render_sorts_series_within_a_family() {
        // Register shards out of order; the exposition must not depend on
        // registration order (scrapes diff cleanly, dashboards are stable).
        let reg = MetricsRegistry::new();
        for shard in ["7", "2", "0", "5"] {
            reg.counter("shard_total", "h", &[("shard", shard)]).inc();
        }
        let text = reg.render();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("shard_total{"))
            .collect();
        assert_eq!(
            lines,
            vec![
                "shard_total{shard=\"0\"} 1",
                "shard_total{shard=\"2\"} 1",
                "shard_total{shard=\"5\"} 1",
                "shard_total{shard=\"7\"} 1",
            ]
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("esc_total", "h", &[("v", "a\"b\\c")]).inc();
        assert!(reg.render().contains("esc_total{v=\"a\\\"b\\\\c\"} 1"));
    }
}
