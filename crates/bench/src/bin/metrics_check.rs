//! CI validator for the metrics snapshot embedded in a `perf_bench`
//! document: `cargo run --bin metrics_check -- BENCH.json` parses the
//! file with the dependency-free `cardiotouch-obs` JSON parser and
//! fails (exit 1) unless the document is schema v3+ and its `metrics`
//! object carries the core instrumentation the streaming stack is
//! supposed to populate — beat counters, design-cache hit statistics
//! and a non-empty per-hop latency histogram. Documents produced with
//! `perf_bench --faults` additionally carry a `faults` section; for
//! those the fault/degradation counters must have fired and the
//! degraded-path overhead must sit inside its declared budget.
//! Documents produced with `perf_bench --fleet` carry a `fleet`
//! section; for those the `core.fleet.*` instrumentation must be live
//! (admissions and migrations fired, per-shard hop histograms
//! populated) and the declared scaling efficiency must clear its own
//! floor. Documents produced with `perf_bench --ingest` carry an
//! `ingest` section; for those the wire front-door counters
//! (`ingest.*`) and the BLE parameter-uplink counters
//! (`device.uplink.*`) must be live, the declared decode
//! throughput must clear its real-time floor, and the document must
//! attest an alloc-free steady state. Documents produced with
//! `perf_bench --durability` carry a `durability` section; for those
//! the durable-serving counters (`core.fleet.restarts`, `.checkpoints`,
//! `.compactions`, the `checkpoint_us` histogram and the
//! `log_segments` gauge) must be live, the declared checkpoint
//! overhead must sit inside its budget, cold-start recovery must clear
//! its latency budget, and the document must attest a bounded on-disk
//! log (segments retired, retained bytes < appended bytes). Whenever
//! the document declares an observability-overhead budget (schema
//! v6+), the measured full-run overhead must sit inside it.

use std::process::ExitCode;

use cardiotouch_obs::json::{self, Value};

/// Counters every benchmarked run must have incremented.
const REQUIRED_COUNTERS: &[&str] = &[
    "core.stream.beats_emitted",
    "core.scheduler.ticks",
    "ecg.online.beats_detected",
    "icg.online.beats_delineated",
    "dsp.design_cache.hits",
    "dsp.design_cache.misses",
];

/// Counters that must be registered but may legitimately still be zero
/// (the smoke fleet runs fewer ticks than the engine's settle latency,
/// so its sessions may not have emitted any beat yet).
const PRESENT_COUNTERS: &[&str] = &["core.scheduler.beats", "core.stream.samples_sanitized"];

/// Histograms that must exist with at least one recorded sample.
const REQUIRED_HISTOGRAMS: &[&str] = &["core.scheduler.hop_us", "core.stream.hop_us"];

/// Counters the degradation ladder and scheduler quarantine must have
/// incremented whenever the document carries a `faults` section (the
/// run was `perf_bench --faults`): its scenario includes a dropout
/// longer than the holdover cap and a hard front-end fault, so a zero
/// here means the fault plumbing silently stopped firing.
const FAULT_REQUIRED_COUNTERS: &[&str] = &[
    "core.stream.state_transitions",
    "core.stream.holdover_truncated",
    "core.scheduler.session_errors",
    "core.scheduler.session_retries",
    "core.scheduler.session_recoveries",
];

/// Ladder counters registered at stream construction that a lucky
/// faulted run may legitimately leave at zero.
const FAULT_PRESENT_COUNTERS: &[&str] =
    &["core.stream.beats_suppressed", "core.stream.beats_degraded"];

/// Counters the sharded fleet must have incremented whenever the
/// document carries a `fleet` section (the run was `perf_bench
/// --fleet`): sessions were admitted and at least one live migration
/// went through the snapshot codec.
const FLEET_REQUIRED_COUNTERS: &[&str] = &["core.fleet.enqueued", "core.fleet.migrations"];

/// Fleet counters that must be registered but may legitimately be zero
/// (a run without admission pressure rejects nothing).
const FLEET_PRESENT_COUNTERS: &[&str] = &["core.fleet.rejected"];

/// Counters the wire front door and the BLE parameter uplink must have
/// incremented whenever the document carries an `ingest` section (the
/// run was `perf_bench --ingest`): its lossy pass corrupts and drops
/// frames, so decoder resyncs and reorder parking must have fired, and
/// the uplink pass loses notifications and corrupts the received byte
/// stream, so the link and resync counters must all be live.
const INGEST_REQUIRED_COUNTERS: &[&str] = &[
    "ingest.frames",
    "ingest.bytes",
    "ingest.resyncs",
    "ingest.reordered",
    "ingest.log_appended",
    "device.uplink.delivered",
    "device.uplink.dropped",
    "device.uplink.resyncs",
    "device.uplink.records_decoded",
    "device.uplink.bytes_skipped",
];

/// Ingest counters that must be registered but may legitimately be
/// zero (a short lossy pass can end with every gap still parked in the
/// reorder window, so no frame was declared lost yet).
const INGEST_PRESENT_COUNTERS: &[&str] = &["ingest.dropped"];

/// Counters durable serving must have incremented whenever the
/// document carries a `durability` section (the run was `perf_bench
/// --durability`): its fleet leg injects a shard panic and restarts
/// the shard, seals checkpoints on a cadence and rotates a tiny
/// segment policy, so supervised restarts, sealed checkpoints and
/// log compactions must all have fired.
const DURABILITY_REQUIRED_COUNTERS: &[&str] = &[
    "core.fleet.restarts",
    "core.fleet.checkpoints",
    "core.fleet.compactions",
];

fn check(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version")?;
    if schema < 3.0 {
        return Err(format!(
            "schema_version {schema} predates embedded metrics (need >= 3)"
        ));
    }
    let metrics = doc.get("metrics").ok_or("missing `metrics` object")?;
    let counters = metrics
        .get("counters")
        .and_then(Value::as_obj)
        .ok_or("metrics.counters missing or not an object")?;
    for name in REQUIRED_COUNTERS {
        let v = counters
            .get(*name)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("counter `{name}` missing"))?;
        if v <= 0.0 {
            return Err(format!("counter `{name}` is {v}, expected > 0"));
        }
    }
    for name in PRESENT_COUNTERS {
        if counters.get(*name).and_then(Value::as_f64).is_none() {
            return Err(format!("counter `{name}` missing"));
        }
    }
    let histograms = metrics
        .get("histograms")
        .and_then(Value::as_obj)
        .ok_or("metrics.histograms missing or not an object")?;
    for name in REQUIRED_HISTOGRAMS {
        let h = histograms
            .get(*name)
            .ok_or_else(|| format!("histogram `{name}` missing"))?;
        let count = h
            .get("count")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("histogram `{name}` has no count"))?;
        if count <= 0.0 {
            return Err(format!("histogram `{name}` is empty"));
        }
        for q in ["p50", "p99"] {
            if h.get(q).and_then(Value::as_f64).is_none() {
                return Err(format!("histogram `{name}` has no {q}"));
            }
        }
    }
    let overhead = doc
        .get("obs")
        .and_then(|o| o.get("overhead_pct"))
        .and_then(Value::as_f64)
        .ok_or("missing obs.overhead_pct")?;
    // Schema v6+ documents declare the instrumentation-overhead budget;
    // a committed full run must sit inside it (the smoke run's few
    // measurement pairs are too noisy to discriminate at this level).
    let is_smoke = matches!(doc.get("smoke"), Some(Value::Bool(true)));
    if let Some(budget) = doc
        .get("obs")
        .and_then(|o| o.get("overhead_budget_pct"))
        .and_then(Value::as_f64)
    {
        if !is_smoke && (!overhead.is_finite() || overhead >= budget) {
            return Err(format!(
                "observability overhead {overhead:.2} % violates the {budget:.0} % budget"
            ));
        }
    }
    if let Some(faults) = doc.get("faults") {
        for name in FAULT_REQUIRED_COUNTERS {
            let v = counters
                .get(*name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("counter `{name}` missing from a faulted run"))?;
            if v <= 0.0 {
                return Err(format!(
                    "counter `{name}` is {v} in a faulted run, expected > 0"
                ));
            }
        }
        for name in FAULT_PRESENT_COUNTERS {
            if counters.get(*name).and_then(Value::as_f64).is_none() {
                return Err(format!("counter `{name}` missing from a faulted run"));
            }
        }
        // The scheduler republishes quarantine occupancy after every
        // tick; a faulted run must at least have registered the gauge.
        if metrics
            .get("gauges")
            .and_then(Value::as_obj)
            .and_then(|g| g.get("core.scheduler.quarantined"))
            .and_then(Value::as_f64)
            .is_none()
        {
            return Err("gauge `core.scheduler.quarantined` missing from a faulted run".into());
        }
        let degraded = faults
            .get("degraded_overhead_pct")
            .and_then(Value::as_f64)
            .ok_or("missing faults.degraded_overhead_pct")?;
        let budget = faults
            .get("degraded_overhead_budget_pct")
            .and_then(Value::as_f64)
            .ok_or("missing faults.degraded_overhead_budget_pct")?;
        if !degraded.is_finite() || degraded >= budget {
            return Err(format!(
                "degraded-path overhead {degraded:.2} % violates the {budget:.0} % budget"
            ));
        }
        eprintln!("faulted run ok: degraded-path overhead {degraded:.2} % (budget {budget:.0} %)");
    }
    if let Some(fleet) = doc.get("fleet") {
        for name in FLEET_REQUIRED_COUNTERS {
            let v = counters
                .get(*name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("counter `{name}` missing from a fleet run"))?;
            if v <= 0.0 {
                return Err(format!(
                    "counter `{name}` is {v} in a fleet run, expected > 0"
                ));
            }
        }
        for name in FLEET_PRESENT_COUNTERS {
            if counters.get(*name).and_then(Value::as_f64).is_none() {
                return Err(format!("counter `{name}` missing from a fleet run"));
            }
        }
        let gauges = metrics
            .get("gauges")
            .and_then(Value::as_obj)
            .ok_or("metrics.gauges missing or not an object")?;
        let shards = gauges
            .get("core.fleet.shards")
            .and_then(Value::as_f64)
            .ok_or("gauge `core.fleet.shards` missing from a fleet run")?;
        if shards <= 0.0 {
            return Err(format!("gauge `core.fleet.shards` is {shards}"));
        }
        // Every shard that existed must have published its own hop
        // histogram and quarantine gauge.
        for shard in 0..shards as usize {
            let hop = format!("core.fleet.shard{shard}.hop_us");
            let count = histograms
                .get(&hop)
                .and_then(|h| h.get("count"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("histogram `{hop}` missing from a fleet run"))?;
            if count <= 0.0 {
                return Err(format!("histogram `{hop}` is empty"));
            }
            let quarantined = format!("core.fleet.shard{shard}.quarantined");
            if gauges.get(&quarantined).and_then(Value::as_f64).is_none() {
                return Err(format!("gauge `{quarantined}` missing from a fleet run"));
            }
        }
        if !histograms
            .get("core.fleet.rebalance_us")
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .is_some_and(|c| c > 0.0)
        {
            return Err("histogram `core.fleet.rebalance_us` missing or empty".into());
        }
        let efficiency = fleet
            .get("scaling_efficiency")
            .and_then(Value::as_f64)
            .ok_or("missing fleet.scaling_efficiency")?;
        let floor = fleet
            .get("efficiency_floor")
            .and_then(Value::as_f64)
            .ok_or("missing fleet.efficiency_floor")?;
        if !efficiency.is_finite() || efficiency < floor {
            return Err(format!(
                "fleet scaling efficiency {efficiency:.3} is below the {floor} floor"
            ));
        }
        eprintln!(
            "fleet run ok: {shards:.0} shards, scaling efficiency {efficiency:.3} (floor {floor})"
        );
    }
    if let Some(ingest) = doc.get("ingest") {
        for name in INGEST_REQUIRED_COUNTERS {
            let v = counters
                .get(*name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("counter `{name}` missing from an ingest run"))?;
            if v <= 0.0 {
                return Err(format!(
                    "counter `{name}` is {v} in an ingest run, expected > 0"
                ));
            }
        }
        for name in INGEST_PRESENT_COUNTERS {
            if counters.get(*name).and_then(Value::as_f64).is_none() {
                return Err(format!("counter `{name}` missing from an ingest run"));
            }
        }
        let multiple = ingest
            .get("realtime_multiple")
            .and_then(Value::as_f64)
            .ok_or("missing ingest.realtime_multiple")?;
        let floor = ingest
            .get("realtime_floor")
            .and_then(Value::as_f64)
            .ok_or("missing ingest.realtime_floor")?;
        if !multiple.is_finite() || multiple < floor {
            return Err(format!(
                "ingest decode at {multiple:.1}x real time is below the {floor}x floor"
            ));
        }
        if !matches!(
            ingest.get("alloc_free_steady_state"),
            Some(Value::Bool(true))
        ) {
            return Err("ingest.alloc_free_steady_state is not true".into());
        }
        eprintln!(
            "ingest run ok: decode {multiple:.0}x real time (floor {floor}x), \
             alloc-free steady state attested"
        );
    }
    if let Some(durability) = doc.get("durability") {
        for name in DURABILITY_REQUIRED_COUNTERS {
            let v = counters
                .get(*name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("counter `{name}` missing from a durability run"))?;
            if v <= 0.0 {
                return Err(format!(
                    "counter `{name}` is {v} in a durability run, expected > 0"
                ));
            }
        }
        if !histograms
            .get("core.fleet.checkpoint_us")
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .is_some_and(|c| c > 0.0)
        {
            return Err("histogram `core.fleet.checkpoint_us` missing or empty".into());
        }
        let segments = metrics
            .get("gauges")
            .and_then(Value::as_obj)
            .and_then(|g| g.get("core.fleet.log_segments"))
            .and_then(Value::as_f64)
            .ok_or("gauge `core.fleet.log_segments` missing from a durability run")?;
        if segments < 1.0 {
            return Err(format!("gauge `core.fleet.log_segments` is {segments}"));
        }
        let tax = durability
            .get("durability_overhead_pct")
            .and_then(Value::as_f64)
            .ok_or("missing durability.durability_overhead_pct")?;
        let budget = durability
            .get("durability_overhead_budget_pct")
            .and_then(Value::as_f64)
            .ok_or("missing durability.durability_overhead_budget_pct")?;
        if !is_smoke && (!tax.is_finite() || tax >= budget) {
            return Err(format!(
                "durable-serving overhead {tax:.2} % violates the {budget:.0} % budget"
            ));
        }
        let recovery = durability
            .get("recovery_ms")
            .and_then(Value::as_f64)
            .ok_or("missing durability.recovery_ms")?;
        let recovery_budget = durability
            .get("recovery_budget_ms")
            .and_then(Value::as_f64)
            .ok_or("missing durability.recovery_budget_ms")?;
        if !recovery.is_finite() || recovery > recovery_budget {
            return Err(format!(
                "cold-start recovery {recovery:.0} ms violates the {recovery_budget:.0} ms budget"
            ));
        }
        if !matches!(durability.get("bounded_log"), Some(Value::Bool(true))) {
            return Err("durability.bounded_log is not true".into());
        }
        if !durability
            .get("segments_retired")
            .and_then(Value::as_f64)
            .is_some_and(|r| r > 0.0)
        {
            return Err("durability.segments_retired is missing or zero".into());
        }
        eprintln!(
            "durability run ok: overhead {tax:.2} % (budget {budget:.0} %), recovery \
             {recovery:.1} ms (budget {recovery_budget:.0} ms), bounded log attested"
        );
    }
    eprintln!(
        "metrics snapshot ok: {} counters, {} histograms, obs overhead {overhead:.2} %",
        counters.len(),
        histograms.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: metrics_check <BENCH.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: invalid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{path}: {msg}");
            ExitCode::FAILURE
        }
    }
}
