//! `cardiotouch-obs` — zero-dependency observability substrate for the
//! cardiotouch workspace.
//!
//! The paper's device must *prove* its real-time and power budget
//! (beat-to-beat deadlines, 106 h on a 710 mAh cell), and the
//! production north star — fleets of concurrent streaming sessions —
//! needs the serving stack to measure itself uniformly rather than with
//! ad-hoc `Vec`-sort percentiles and one-off atomics. This crate is
//! that layer, built on `std` alone:
//!
//! * **[`Registry`]** — named atomic [`Counter`]s and [`Gauge`]s plus
//!   lock-free log-linear [`Histogram`]s with thread-sharded writes and
//!   p50/p90/p99/p999 quantile queries (§ [`metrics`]);
//! * **spans** — RAII [`span!`] timers over a thread-local span stack,
//!   driven by an injectable [`clock::Clock`] so tests are
//!   deterministic (§ [`span`](mod@span), [`clock`]);
//! * **exporters** — a point-in-time [`Snapshot`] (plain data,
//!   optionally serde-derived, with a dependency-free JSON renderer)
//!   and a JSONL streaming exporter (§ [`export`]), plus a minimal JSON
//!   parser so emitted documents can be validated in tests and CI
//!   (§ [`json`]).
//!
//! # Naming convention
//!
//! Metric names are dotted paths `crate.component.event`; measured
//! quantities carry a unit suffix (`_us`, `_ms`, `_bytes`). Span names
//! double as histogram names and therefore end in `_us` (spans record
//! microseconds). Counters count events and use plural nouns
//! (`beats_emitted`, `delineation_failures`).
//!
//! # Global vs. scoped registries
//!
//! Process-wide instrumentation uses the global registry via the
//! free functions below ([`counter`], [`gauge`], [`histogram`],
//! [`snapshot`], [`span!`]). Tests needing isolation or deterministic
//! time build their own [`Registry`] (optionally over a
//! [`clock::ManualClock`]) and use its methods directly.
//!
//! ```
//! use cardiotouch_obs as obs;
//!
//! let beats = obs::counter("example.beats_emitted");
//! beats.add(3);
//! {
//!     let _span = obs::span!("example.hop_us");
//!     // timed work…
//! }
//! let snap = obs::snapshot();
//! assert!(snap.counter("example.beats_emitted").unwrap() >= 3);
//! assert!(snap.histogram("example.hop_us").unwrap().count >= 1);
//! ```

pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;

use std::sync::OnceLock;

pub use export::JsonlExporter;
pub use metrics::{Counter, Gauge, Histogram, HistogramStat, LocalHistogram};
pub use registry::{Registry, Snapshot};

/// The process-wide registry backing [`counter`]/[`gauge`]/
/// [`histogram`]/[`snapshot`] and the [`span!`] macro.
#[must_use]
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Global-registry counter handle (registers on first use).
#[must_use]
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Global-registry gauge handle (registers on first use).
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Global-registry histogram handle (registers on first use).
#[must_use]
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// Point-in-time snapshot of the global registry.
#[must_use]
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Enables or disables all recording on the global registry. Disabled
/// metrics keep their values and drop updates; each instrumentation
/// site degrades to one relaxed atomic load.
pub fn set_enabled(enabled: bool) {
    registry().set_enabled(enabled);
}

/// Whether global-registry recording is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    registry().enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared_and_live() {
        let a = counter("lib.test.events");
        let b = counter("lib.test.events");
        a.inc();
        b.inc();
        assert!(snapshot().counter("lib.test.events").unwrap() >= 2);
        assert!(enabled());
    }

    #[test]
    fn span_macro_times_into_the_global_registry() {
        {
            let _g = span!("lib.test.block_us");
        }
        let snap = snapshot();
        assert!(snap.histogram("lib.test.block_us").unwrap().count >= 1);
    }
}
