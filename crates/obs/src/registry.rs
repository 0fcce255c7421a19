//! Named metric registry and point-in-time snapshots.
//!
//! A [`Registry`] maps dotted metric names (`crate.component.event`,
//! unit suffix on measured quantities — see `DESIGN.md` §6c) to
//! counters, gauges and histograms. Lookup takes a mutex once per
//! *handle* acquisition; the handles themselves update lock-free, so
//! hot paths resolve their metrics at construction time and never touch
//! the registry again.
//!
//! [`Registry::snapshot`] freezes every metric into a [`Snapshot`] —
//! plain data, serde-serializable (behind the `serde` feature) and
//! renderable as JSON via [`Snapshot::to_json`] with zero dependencies.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, MonotonicClock};
use crate::json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramStat};
use crate::span::SpanGuard;

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A process- or test-scoped collection of named metrics sharing one
/// clock and one enable gate.
///
/// The crate-level [`crate::registry()`] function returns the global
/// instance; tests build private registries (optionally with a
/// [`crate::clock::ManualClock`]) so their readings are isolated and
/// deterministic.
#[derive(Debug)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    clock: Arc<dyn Clock>,
    gate: Arc<AtomicBool>,
}

impl Registry {
    /// Creates an enabled registry on the monotonic wall clock.
    #[must_use]
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Creates an enabled registry timing spans against `clock`.
    #[must_use]
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            metrics: Mutex::new(BTreeMap::new()),
            clock,
            gate: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Whether metric updates are currently recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.gate.load(Ordering::Relaxed)
    }

    /// Globally enables or disables recording on every handle issued by
    /// this registry (existing values are kept, updates are dropped
    /// while disabled). Used by `perf_bench` to measure instrumentation
    /// overhead.
    pub fn set_enabled(&self, enabled: bool) {
        self.gate.store(enabled, Ordering::SeqCst);
    }

    /// The registry's span clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind — metric names are a static, crate-owned namespace, so a
    /// kind collision is a programming error.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::new(Arc::clone(&self.gate))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is already registered as a non-counter"),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind collision (see [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::new(Arc::clone(&self.gate))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is already registered as a non-gauge"),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind collision (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new(Arc::clone(&self.gate))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` is already registered as a non-histogram"),
        }
    }

    /// Opens a scoped span timer recording into the histogram `name`
    /// (microseconds) when the returned guard drops. See
    /// [`crate::span!`] for the global-registry shorthand.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard::enter_in(self, name)
    }

    /// Freezes every registered metric into plain data.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().expect("obs registry poisoned");
        let mut snap = Snapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push(h.stat(name)),
            }
        }
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time export of a registry: plain data, sorted by metric
/// name within each kind.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// Distribution summaries for every histogram.
    pub histograms: Vec<HistogramStat>,
}

impl Snapshot {
    /// Value of the counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of the gauge `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Summary of the histogram `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    /// `pretty` adds two-space indentation; compact output is a single
    /// line, suitable as one JSONL record.
    #[must_use]
    pub fn to_json(&self, pretty: bool) -> String {
        let (nl, ind, ind2, ind3) = if pretty {
            ("\n", "  ", "    ", "      ")
        } else {
            ("", "", "", "")
        };
        let sep = if pretty { ": " } else { ":" };
        let mut out = String::from("{");
        out.push_str(nl);

        out.push_str(&format!("{ind}\"counters\"{sep}{{{nl}"));
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!(
                "{ind2}\"{}\"{sep}{v}{comma}{nl}",
                json::escape(name)
            ));
        }
        out.push_str(&format!("{ind}}},{nl}"));

        out.push_str(&format!("{ind}\"gauges\"{sep}{{{nl}"));
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            out.push_str(&format!(
                "{ind2}\"{}\"{sep}{v}{comma}{nl}",
                json::escape(name)
            ));
        }
        out.push_str(&format!("{ind}}},{nl}"));

        out.push_str(&format!("{ind}\"histograms\"{sep}{{{nl}"));
        for (i, h) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "{ind2}\"{}\"{sep}{{{nl}{ind3}\"count\"{sep}{},{nl}{ind3}\"min\"{sep}{},{nl}{ind3}\"max\"{sep}{},{nl}{ind3}\"mean\"{sep}{},{nl}{ind3}\"p50\"{sep}{},{nl}{ind3}\"p90\"{sep}{},{nl}{ind3}\"p99\"{sep}{},{nl}{ind3}\"p999\"{sep}{}{nl}{ind2}}}{comma}{nl}",
                json::escape(&h.name),
                h.count,
                h.min,
                h.max,
                json::number(h.mean),
                json::number(h.p50),
                json::number(h.p90),
                json::number(h.p99),
                json::number(h.p999),
            ));
        }
        out.push_str(&format!("{ind}}}{nl}"));
        out.push('}');
        if pretty {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn handles_share_cells_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(a, b);
        assert_ne!(a, reg.counter("x.other"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let reg = Registry::new();
        let _c = reg.counter("x");
        let _h = reg.histogram("x");
    }

    #[test]
    fn snapshot_collects_everything_sorted() {
        let reg = Registry::new();
        reg.counter("b.count").add(5);
        reg.counter("a.count").add(1);
        reg.gauge("depth").set(-3);
        let h = reg.histogram("lat_us");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), Some(1));
        assert_eq!(snap.counter("b.count"), Some(5));
        assert_eq!(snap.counters[0].0, "a.count", "sorted by name");
        assert_eq!(snap.gauge("depth"), Some(-3));
        let stat = snap.histogram("lat_us").unwrap();
        assert_eq!(stat.count, 3);
        assert_eq!(stat.min, 10);
        assert_eq!(stat.max, 30);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let reg = Registry::new();
        reg.counter("c.one").inc();
        reg.gauge("g.two").set(7);
        reg.histogram("h.three_us").record(1_500);
        let snap = reg.snapshot();
        for pretty in [false, true] {
            let text = snap.to_json(pretty);
            let v = parse(&text).unwrap_or_else(|e| panic!("pretty={pretty}: {e}\n{text}"));
            assert_eq!(
                v.get("counters").unwrap().get("c.one").unwrap().as_f64(),
                Some(1.0)
            );
            assert_eq!(
                v.get("gauges").unwrap().get("g.two").unwrap().as_f64(),
                Some(7.0)
            );
            let h = v.get("histograms").unwrap().get("h.three_us").unwrap();
            assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
            assert!(h.get("p50").unwrap().as_f64().unwrap() > 1_400.0);
        }
        // compact form is a single line (a valid JSONL record)
        assert!(!snap.to_json(false).contains('\n'));
    }

    #[test]
    fn disabling_freezes_values() {
        let reg = Registry::new();
        let c = reg.counter("frozen");
        c.add(4);
        reg.set_enabled(false);
        assert!(!reg.enabled());
        c.add(10);
        assert_eq!(reg.snapshot().counter("frozen"), Some(4));
        reg.set_enabled(true);
        c.inc();
        assert_eq!(reg.snapshot().counter("frozen"), Some(5));
    }
}
