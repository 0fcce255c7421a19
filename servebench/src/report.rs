//! Metric definitions and output: the end-to-end and per-layer metric
//! sets, the run-context line, the layer table, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::closed::{ProbeOut, Spec};
use crate::inputs::Grid;
use crate::oracle::{RefStats, Tally};
use crate::sys;
use crate::trace::Tracer;
use crate::{ColdSetup, Workload};

/// Linear-interpolated quantile of `v` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Ordered `name → (value, unit)` metric list.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// `core.stream.hop_us` as `(count, sum in µs)`; both are deltas-safe,
/// unlike the histogram's quantiles.
pub fn hop_totals() -> (u64, f64) {
    cardiotouch_obs::snapshot()
        .histogram("core.stream.hop_us")
        .map_or((0, 0.0), |h| (h.count, h.mean * h.count as f64))
}

/// One timed pass, whichever loop ran it. Fields a loop has no use for
/// stay at their defaults.
#[derive(Debug, Default)]
pub struct Pass {
    /// Open loop (`FrontDoor` + `BeatStream`) rather than `Fleet`.
    pub open_loop: bool,
    /// Timed wall seconds.
    pub wall_s: f64,
    /// CPU charged to the served sessions: process CPU on the closed
    /// loop, serving-thread CPU on the open loop.
    pub cpu_s: f64,
    /// Process CPU seconds over the timed parts.
    pub process_cpu_s: f64,
    /// Session-seconds of signal served.
    pub session_seconds: f64,
    /// Oracle and recall totals.
    pub tally: Tally,
    /// Per-beat emit latency, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per-beat R→report delay, seconds of signal.
    pub delay_s: Vec<f64>,
    /// RSS growth per live session, KiB.
    pub rss_per_session_kb: f64,
    /// Hop-running `push_qualified` calls (open loop), microseconds.
    pub push_hop_us: Vec<f64>,
    /// `Fleet::wire_push` calls, microseconds.
    pub wire_push_us: Vec<f64>,
    /// `Fleet::wire_collect` calls, milliseconds.
    pub collect_ms: Vec<f64>,
    /// Control-thread CPU seconds over the timed parts.
    pub control_cpu_s: f64,
    /// CPU seconds of every other thread (the shards) over the pass.
    pub other_cpu_s: f64,
    /// Fleet shards (0 on the open loop).
    pub shards: usize,
    /// Generator lateness per frame, milliseconds: behind the due time on
    /// the open loop, behind the previous call's return on the closed
    /// loop.
    pub lag_ms: Vec<f64>,
    /// Encoding seconds.
    pub encode_s: f64,
    /// Frames the encoders produced.
    pub frames_sent: u64,
    /// Samples the reassembler filled with NaN.
    pub filled_samples: u64,
    /// Sample runs the front door delivered.
    pub runs_dispatched: u64,
    /// Hops the program's `core.stream.hop_us` timer recorded.
    pub hops: u64,
    /// Their summed duration, microseconds.
    pub hop_sum_us: f64,
    /// Waves of sessions served.
    pub waves: usize,
    /// Counter deltas over the timed parts.
    pub obs: BTreeMap<String, u64>,
    /// Machine-wide CPU ticks stolen by the hypervisor over the timed
    /// parts, and all CPU ticks over them.
    pub steal: (u64, u64),
}

impl Pass {
    /// Share of the machine's CPU time the hypervisor stole during the
    /// timed parts.
    pub fn steal_share(&self) -> f64 {
        ratio(self.steal.0 as f64, self.steal.1 as f64)
    }

    fn c(&self, name: &str) -> f64 {
        self.obs.get(name).copied().unwrap_or(0) as f64
    }
}

/// Self time per layer on the measured thread's timeline, seconds.
#[derive(Debug, Default)]
pub struct Layers {
    /// `core::stream`: serving-thread calls, or shard hop time.
    pub stream: f64,
    /// `core::wire` front door.
    pub wire: f64,
    /// `core::fleet` calls minus the front door inside them.
    pub fleet: f64,
    /// `Fleet::checkpoint` calls.
    pub durable: f64,
    /// Session close (final snapshot) on the open loop.
    pub snapshot: f64,
    /// Waiting for frames on the open loop.
    pub idle: f64,
    /// The benchmark's own work between serving calls.
    pub gen: f64,
    /// Wall time of the timeline.
    pub wall: f64,
}

impl Layers {
    /// Share of the timeline no span or generator gap accounts for. On
    /// the closed loop the stream layer runs on other threads.
    pub fn unaccounted_share(&self, open_loop: bool) -> f64 {
        let stream = if open_loop { self.stream } else { 0.0 };
        let covered =
            stream + self.wire + self.fleet + self.durable + self.snapshot + self.idle + self.gen;
        ratio(self.wall - covered, self.wall)
    }
}

/// Everything one invocation measured.
pub struct Run {
    workload: Workload,
    seed: u64,
    synth_s: f64,
    /// Untraced pass first; with `--trace 1`, the traced pass last.
    pub passes: Vec<Pass>,
    probe: ProbeOut,
    cold: ColdSetup,
    hop_p50_us: f64,
    hop_p99_us: f64,
    peak_rss_kb: u64,
}

impl Run {
    /// An empty run record.
    pub fn new(workload: Workload, seed: u64, grid: &Grid) -> Self {
        Self {
            workload,
            seed,
            synth_s: grid.synth_s,
            passes: Vec::new(),
            probe: ProbeOut::default(),
            cold: ColdSetup::default(),
            hop_p50_us: 0.0,
            hop_p99_us: 0.0,
            peak_rss_kb: 0,
        }
    }

    /// Records the probe, the cold set-up figures and the process-wide
    /// readings taken after the passes.
    pub fn finish(&mut self, probe: ProbeOut, cold: ColdSetup) {
        self.probe = probe;
        self.cold = cold;
        if let Some(h) = cardiotouch_obs::snapshot().histogram("core.stream.hop_us") {
            self.hop_p50_us = h.p50;
            self.hop_p99_us = h.p99;
        }
        self.peak_rss_kb = sys::peak_rss_kb();
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for p in &self.passes {
            t.merge(&p.tally);
        }
        t.merge(&self.probe.tally);
        t
    }

    fn first(&self) -> &Pass {
        self.passes.first().expect("at least one pass ran")
    }

    fn last(&self) -> &Pass {
        self.passes.last().expect("at least one pass ran")
    }

    /// p99 generator lateness of the last pass, ms (0 on closed loops).
    pub fn gen_lag_p99_ms(&self) -> f64 {
        quantile(&self.last().lag_ms, 0.99)
    }

    /// The end-to-end metrics, from the untraced pass.
    pub fn end_to_end(&self) -> Metrics {
        let p = self.first();
        let t = self.tally();
        let mut m = Metrics::default();
        m.put(
            "sustained_sessions",
            ratio(p.session_seconds, p.wall_s),
            "sessions",
        );
        m.put(
            "sessions_per_core",
            ratio(p.session_seconds, p.cpu_s),
            "sessions/core",
        );
        m.put("emit_latency_p50_ms", quantile(&p.latency_ms, 0.5), "ms");
        m.put("emit_latency_p99_ms", quantile(&p.latency_ms, 0.99), "ms");
        m.put("report_delay_p50_s", quantile(&p.delay_s, 0.5), "s");
        m.put("report_delay_p99_s", quantile(&p.delay_s, 0.99), "s");
        m.put("rss_per_session_kb", p.rss_per_session_kb, "KiB");
        m.put(
            "beat_recall",
            ratio(p.tally.matched as f64, p.tally.truth_beats as f64),
            "ratio",
        );
        m.put(
            "ok_share",
            ratio((t.attempted - t.failed) as f64, t.attempted as f64),
            "ratio",
        );
        m.put("recovery_s", median(&self.probe.recovery_s), "s");
        m.put("setup_s", self.cold.setup_s, "s");
        m
    }

    /// The per-layer metrics, from the traced (last) pass and its spans.
    pub fn per_layer(&self, traced: &Tracer, refs: &RefStats) -> (Metrics, Layers) {
        let p = self.last();
        let a = self.first();
        let totals = traced.totals();
        let span_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
        let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
        let mut m = Metrics::default();

        // core::stream
        let hop_push: &[f64] = if p.open_loop {
            &p.push_hop_us
        } else {
            &refs.hop_push_us
        };
        m.put("stream.push_us.p50", quantile(hop_push, 0.5), "us");
        m.put("stream.push_us.p99", quantile(hop_push, 0.99), "us");
        let stream_s = if p.open_loop {
            span_s("stream.push_qualified")
        } else {
            p.hop_sum_us / 1e6
        };
        let threads = if p.open_loop { 1 } else { p.shards.max(1) };
        m.put(
            "stream.busy_share",
            ratio(stream_s, p.wall_s * threads as f64),
            "ratio",
        );
        m.put("stream.hop_us.p50", self.hop_p50_us, "us");
        m.put("stream.hop_us.p99", self.hop_p99_us, "us");
        m.put("stream.hops", p.hops as f64, "count");
        m.put(
            "stream.beats_emitted",
            p.c("core.stream.beats_emitted"),
            "count",
        );
        m.put(
            "stream.beats_suppressed",
            p.c("core.stream.beats_suppressed"),
            "count",
        );
        m.put(
            "stream.beats_degraded",
            p.c("core.stream.beats_degraded"),
            "count",
        );
        m.put(
            "stream.samples_sanitized",
            p.c("core.stream.samples_sanitized"),
            "count",
        );

        // core::wire over ingest::frame and ingest::assembler
        let frames = p.c("ingest.frames");
        let wire_ns_per_frame = if p.open_loop {
            ratio(self_s("wire.push") * 1e9, frames)
        } else {
            ratio(refs.wire_self_ns as f64, refs.frames as f64)
        };
        m.put("wire.self_ns_per_frame", wire_ns_per_frame, "ns");
        m.put("wire.frames", frames, "count");
        m.put("wire.bytes", p.c("ingest.bytes"), "bytes");
        m.put("wire.resyncs", p.c("ingest.resyncs"), "count");
        m.put("wire.reordered", p.c("ingest.reordered"), "count");
        m.put("wire.dropped", p.c("ingest.dropped"), "count");
        m.put("wire.filled_samples", p.filled_samples as f64, "count");
        m.put(
            "wire.accept_ratio",
            ratio(frames, p.frames_sent as f64),
            "ratio",
        );

        // core::fleet
        let fleet_calls_s =
            span_s("fleet.wire_push") + span_s("fleet.wire_admit") + span_s("fleet.wire_collect");
        let ckpt_s = span_s("fleet.checkpoint");
        m.put(
            "fleet.wire_push_us.p50",
            quantile(&p.wire_push_us, 0.5),
            "us",
        );
        m.put(
            "fleet.wire_push_us.p99",
            quantile(&p.wire_push_us, 0.99),
            "us",
        );
        m.put(
            "fleet.control_busy_share",
            ratio(p.control_cpu_s, p.wall_s),
            "ratio",
        );
        m.put(
            "fleet.control_wait_share",
            ratio(
                (fleet_calls_s + ckpt_s - p.control_cpu_s).max(0.0),
                p.wall_s,
            ),
            "ratio",
        );
        let shard_wall = p.wall_s * p.shards as f64;
        m.put(
            "fleet.shard_busy_share",
            ratio(p.hop_sum_us / 1e6, shard_wall),
            "ratio",
        );
        m.put(
            "fleet.shard_cpu_share",
            ratio(p.other_cpu_s, shard_wall),
            "ratio",
        );
        m.put(
            "fleet.runs_dispatched",
            if p.open_loop {
                0.0
            } else {
                p.runs_dispatched as f64
            },
            "count",
        );
        m.put("fleet.rejected", p.c("core.fleet.rejected"), "count");
        let ckpt_ms = &self.probe.ckpt_ms;
        m.put("fleet.checkpoint_ms.p50", quantile(ckpt_ms, 0.5), "ms");
        m.put("fleet.checkpoint_ms.max", quantile(ckpt_ms, 1.0), "ms");
        m.put("fleet.collect_ms", median(&p.collect_ms), "ms");

        // ingest::segment, ingest::checkpoint, core::snapshot (crash probe)
        let pr = &self.probe;
        m.put("log.appended_bytes", pr.log_appended_bytes as f64, "bytes");
        m.put("log.retained_bytes", pr.log_retained_bytes as f64, "bytes");
        m.put(
            "log.segments_retired",
            pr.log_segments_retired as f64,
            "count",
        );
        m.put("ckpt.store_bytes", pr.ckpt_store_bytes as f64, "bytes");
        m.put("ckpt.suffix_frames", pr.suffix_frames as f64, "count");
        m.put(
            "snapshot.bytes_per_session",
            pr.snapshot_bytes_per_session,
            "bytes",
        );

        // ecg::online, icg::online
        let detected = p.c("ecg.online.beats_detected");
        let delineated = p.c("icg.online.beats_delineated");
        m.put("ecg.beats_detected", detected, "count");
        m.put("icg.beats_delineated", delineated, "count");
        m.put(
            "icg.delineation_failures",
            p.c("icg.online.delineation_failures"),
            "count",
        );
        m.put("icg.rr_rejected", p.c("icg.online.rr_rejected"), "count");
        m.put("icg.yield", ratio(delineated, detected), "ratio");
        m.put(
            "stream.emit_yield",
            ratio(p.c("core.stream.beats_emitted"), delineated),
            "ratio",
        );

        // dsp::design_cache (cold set-up)
        m.put(
            "dsp.design_cache.hit_rate",
            ratio(
                self.cold.cache_hits as f64,
                (self.cold.cache_hits + self.cold.cache_misses) as f64,
            ),
            "ratio",
        );
        m.put(
            "dsp.design_cache.misses",
            self.cold.cache_misses as f64,
            "count",
        );
        m.put("self_s.design_cache", self.cold.cache_fill_s, "s");

        // Benchmark side
        m.put("gen.lag_ms.p99", quantile(&p.lag_ms, 0.99), "ms");
        m.put("gen.encode_s", p.encode_s, "s");
        m.put("proc.cpu_s", p.process_cpu_s, "s");
        m.put("proc.peak_rss_kb", self.peak_rss_kb as f64, "KiB");
        m.put("proc.steal_share", p.steal_share(), "ratio");
        m.put("emit_latency.samples", p.latency_ms.len() as f64, "count");
        let per_ss = |q: &Pass| ratio(q.cpu_s, q.session_seconds);
        m.put(
            "trace.overhead_pct",
            (ratio(per_ss(p), per_ss(a)) - 1.0) * 100.0,
            "%",
        );
        let t = self.tally();
        m.put(
            "failed_share",
            ratio(t.failed as f64, t.attempted as f64),
            "ratio",
        );

        // Self time per layer on the serving (open loop) or control
        // (closed loop) thread; the closed loop's stream layer runs on
        // the shards and is measured by the program's hop timer.
        let wire = if p.open_loop {
            self_s("wire.push")
        } else {
            wire_ns_per_frame * frames / 1e9
        };
        let layers = Layers {
            stream: stream_s,
            wire,
            fleet: if p.open_loop {
                0.0
            } else {
                fleet_calls_s - wire
            },
            durable: ckpt_s,
            snapshot: span_s("session.close"),
            idle: span_s("serve.wait"),
            gen: if p.open_loop {
                span_s("bench.judge")
            } else {
                p.lag_ms.iter().sum::<f64>() / 1e3
            },
            wall: p.wall_s,
        };
        m.put("self_s.stream", layers.stream, "s");
        m.put("self_s.wire", layers.wire, "s");
        m.put("self_s.fleet", layers.fleet, "s");
        m.put("self_s.gen", layers.gen, "s");
        m.put(
            "trace.unaccounted_share",
            layers.unaccounted_share(p.open_loop),
            "ratio",
        );
        (m, layers)
    }

    /// Prints the traced pass's layer table on standard error.
    pub fn print_layer_table(&self, m: &Metrics, l: &Layers) {
        let p = self.last();
        let g = |n: &str| m.get(n).unwrap_or(0.0);
        let wall = p.wall_s.max(1e-12);
        eprintln!(
            "servebench: {} traced pass: {:.3} s wall, {} waves",
            self.workload.name(),
            p.wall_s,
            p.waves
        );
        eprintln!(
            "  {:<34} {:>10} {:>8} {:>8}",
            "layer", "self_s", "busy", "wait"
        );
        let thread = if p.open_loop {
            "serving thread"
        } else {
            "control thread"
        };
        let rows: [(&str, f64, f64); 7] = [
            ("core::wire (ingest::frame/assembler)", l.wire, 0.0),
            (
                "core::fleet (dispatch, mailbox)",
                l.fleet,
                g("fleet.control_wait_share"),
            ),
            ("ingest::segment/checkpoint", l.durable, 0.0),
            ("core::snapshot (session close)", l.snapshot, 0.0),
            ("idle (waiting for frames)", l.idle, 0.0),
            ("benchmark (generator, judge)", l.gen, 0.0),
            ("unaccounted", l.unaccounted_share(p.open_loop) * wall, 0.0),
        ];
        eprintln!("  on the {thread}:");
        for (name, s, wait) in rows {
            eprintln!("  {name:<34} {s:>10.4} {:>8.3} {wait:>8.3}", s / wall);
        }
        let stream_threads = if p.open_loop { 1.0 } else { p.shards as f64 };
        eprintln!(
            "  {:<34} {:>10.4} {:>8.3} {:>8.3}   ({} thread(s); ecg::online and icg::online run inside it)",
            "core::stream (hops)",
            l.stream,
            g("stream.busy_share"),
            if p.open_loop { 0.0 } else { 1.0 - g("fleet.shard_cpu_share") },
            stream_threads
        );
        eprintln!(
            "  dsp::design_cache: {:.0} misses, hit rate {:.3} during cold set-up; \
             filling it costs a cold stream {:.1} us",
            g("dsp.design_cache.misses"),
            g("dsp.design_cache.hit_rate"),
            g("self_s.design_cache") * 1e6
        );
        eprintln!(
            "  spans account for {:.2} % of the {thread}'s wall time; tracing overhead {:+.2} %",
            (1.0 - l.unaccounted_share(p.open_loop)) * 100.0,
            g("trace.overhead_pct")
        );
    }

    /// The run-context line (printed before the result line).
    pub fn context_json(&self, valid: bool, spec: &Spec) -> String {
        let (l2, l3) = sys::cache_kb();
        let t = self.tally();
        let mut causes = String::new();
        for (i, (k, v)) in t.causes.iter().enumerate() {
            let _ = write!(causes, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
        }
        let p = self.first();
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"context\": {{\"git_sha\": \"{}\", \"nproc\": {}, \"l2_kb\": {l2}, \"l3_kb\": {l3}, \
             \"workload\": \"{}\", \"seed\": {}, \"valid\": {valid}, \"gen_lag_ms_p99\": {}, \
             \"steal_share\": {}, \
             \"params\": {{\"sessions\": {}, \"frame_samples\": {}, \"link_drop\": {}, \"link_corrupt\": {}, \
             \"durable\": {}, \"shards\": {}, \"mailbox\": {}, \"open_loop_speedup\": {}}}, \
             \"passes\": {}, \"waves\": {}, \"timed_wall_s\": {}, \"synth_s\": {}, \
             \"served_beats\": {}, \"truth_beats\": {}, \"failure_causes\": {{{causes}}}, \
             \"latency_samples\": {}}}}}",
            sys::git_sha(),
            sys::nproc(),
            self.workload.name(),
            self.seed,
            num(self.gen_lag_p99_ms()),
            num(p.steal_share()),
            if p.open_loop { crate::BEDSIDE.sessions } else { spec.sessions },
            spec.frame_samples,
            num(spec.link.map_or(0.0, |l| l.0)),
            num(spec.link.map_or(0.0, |l| l.1)),
            !p.open_loop && spec.durable,
            if p.open_loop { 0 } else { spec.shards },
            if p.open_loop { 0 } else { spec.mailbox },
            if p.open_loop { num(crate::BEDSIDE.speedup) } else { "null".into() },
            self.passes.len(),
            p.waves,
            num(p.wall_s),
            num(self.synth_s),
            t.served_beats,
            t.truth_beats,
            p.latency_ms.len(),
        );
        s
    }

    /// The result line: correctness counts plus `metrics`.
    pub fn result_json(&self, metrics: &Metrics) -> String {
        let t = self.tally();
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            t.failed == 0 && t.attempted > 0,
            t.attempted,
            t.failed
        );
        for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" },
                num(*value)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit; non-finite values (never expected)
/// print as 0 so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
