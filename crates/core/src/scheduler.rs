//! Multi-session throughput scheduler for the incremental engine.
//!
//! One [`crate::stream::BeatStream`] models one wearable; a monitoring
//! backend terminates *fleets* of them. [`SessionScheduler`] multiplexes
//! many concurrent sessions on the calling thread: every
//! [`SessionScheduler::tick`] advances each session by exactly one hop
//! (1 s of signal), in session order, measuring the wall-clock cost of
//! each hop. Sessions own their engine state (filters, rings, scratch
//! buffers), so a hop allocates nothing in steady state. One scheduler
//! is one core's worth of sessions; [`crate::fleet::Fleet`] scales out
//! by giving each shard thread its own scheduler slab.
//!
//! The headline figure is *sustained real-time sessions*: how many
//! concurrent live streams the host could keep up with, computed as
//! session-seconds of signal processed per wall-clock second. The
//! per-hop latency percentiles bound the beat-emission delay added by
//! scheduling (on top of the engine's own settle latency).

use std::sync::Arc;
use std::time::Instant;

use cardiotouch_obs::LocalHistogram;
use cardiotouch_physio::faults::FaultScenario;

use crate::config::PipelineConfig;
use crate::pipeline::BeatReport;
use crate::snapshot::BeatStreamSnapshot;
use crate::stream::BeatStream;
use crate::CoreError;

/// Quarantine backoff cap, ticks: an erroring session retries after
/// 1, 2, 4, … up to this many skipped ticks.
const MAX_BACKOFF_TICKS: usize = 32;

/// One session's input: a pair of equal-length template channels played
/// back from `offset`, wrapping around, so arbitrarily many sessions can
/// share a few [`Arc`]'d recordings without cloning sample data. An
/// optional [`FaultScenario`] corrupts the replayed samples on the
/// session's *absolute* sample clock (not the template's), so fault
/// timing is independent of the template length and phase.
#[derive(Debug, Clone)]
pub struct SessionFeed {
    /// ECG channel template (device sample rate).
    pub ecg: Arc<Vec<f64>>,
    /// Impedance channel template, same length as `ecg`.
    pub z: Arc<Vec<f64>>,
    /// Starting phase into the template, samples.
    pub offset: usize,
    /// Fault schedule applied to the replayed samples; `None` (or an
    /// empty scenario) replays the template untouched — and skips the
    /// copy into scratch entirely, so fault-free sessions pay nothing.
    pub faults: Option<Arc<FaultScenario>>,
}

impl SessionFeed {
    /// A clean feed (no fault injection) for the given templates.
    #[must_use]
    pub fn clean(ecg: Arc<Vec<f64>>, z: Arc<Vec<f64>>, offset: usize) -> Self {
        Self {
            ecg,
            z,
            offset,
            faults: None,
        }
    }

    /// Attaches a fault scenario (builder style).
    #[must_use]
    pub fn with_faults(mut self, scenario: Arc<FaultScenario>) -> Self {
        self.faults = Some(scenario);
        self
    }
}

/// Why a session is currently not being stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Quarantine {
    /// Ticks left to skip before the next retry.
    skip: usize,
}

/// One scheduled session: an incremental engine plus its feed cursor.
#[derive(Debug)]
struct SessionSlot {
    stream: BeatStream,
    feed: SessionFeed,
    cursor: usize,
    beats: usize,
    /// Set while the session is sitting out after an error.
    quarantine: Option<Quarantine>,
    /// Next quarantine length in ticks: doubles on every consecutive
    /// failure (capped at [`MAX_BACKOFF_TICKS`]), resets on a clean
    /// retry.
    backoff: usize,
    /// `true` when the slot just came back from quarantine and its next
    /// clean step should count as a recovery.
    retrying: bool,
    errors: usize,
    retries: usize,
    recoveries: usize,
    /// Scratch for the faulted copy of the current chunk.
    ecg_scratch: Vec<f64>,
    z_scratch: Vec<f64>,
}

impl SessionSlot {
    /// Feeds exactly `hop` samples from the wrapped template, applying
    /// the feed's fault scenario (if any) on the session's absolute
    /// sample clock.
    fn step(&mut self, hop: usize) -> Result<Vec<BeatReport>, CoreError> {
        let n = self.feed.ecg.len();
        let mut emitted = Vec::new();
        let mut remaining = hop;
        while remaining > 0 {
            let at = (self.feed.offset + self.cursor) % n;
            let take = remaining.min(n - at);
            let (ecg, z) = (&self.feed.ecg[at..at + take], &self.feed.z[at..at + take]);
            let beats = match self.feed.faults.as_deref().filter(|s| !s.is_empty()) {
                Some(scenario) => {
                    self.ecg_scratch.clear();
                    self.ecg_scratch.extend_from_slice(ecg);
                    self.z_scratch.clear();
                    self.z_scratch.extend_from_slice(z);
                    scenario
                        .apply_chunk(self.cursor, &mut self.ecg_scratch, &mut self.z_scratch)
                        .map_err(|hf| CoreError::SessionFault { at: hf.at })?;
                    self.stream.push(&self.ecg_scratch, &self.z_scratch)?
                }
                None => self.stream.push(ecg, z)?,
            };
            emitted.extend(beats);
            self.cursor += take;
            remaining -= take;
        }
        self.beats += emitted.len();
        Ok(emitted)
    }
}

/// A session lifted out of one scheduler for admission into another —
/// the unit of live migration. Carries the feed (template `Arc`s, so no
/// sample data is copied), the replay cursor, the lifetime tallies and
/// the engine's complete serializable state. Sessions are always
/// extracted between ticks, i.e. at a hop boundary, so the snapshot is
/// taken at a well-defined point of the absolute sample clock.
#[derive(Debug, Clone)]
pub struct MigratedSession {
    /// The session's input feed.
    pub feed: SessionFeed,
    /// Absolute samples replayed so far.
    pub cursor: usize,
    /// Beats emitted so far.
    pub beats: usize,
    /// Engine errors observed so far.
    pub errors: usize,
    /// Quarantine retries attempted so far.
    pub retries: usize,
    /// Retries that came back clean so far.
    pub recoveries: usize,
    /// The engine's complete mutable state.
    pub snapshot: BeatStreamSnapshot,
}

/// Aggregate outcome of a scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Number of concurrent sessions driven.
    pub sessions: usize,
    /// Hops advanced per session.
    pub ticks: usize,
    /// Session-seconds of signal processed (`sessions × ticks × hop/fs`).
    pub session_seconds: f64,
    /// Wall-clock time of the whole run, seconds.
    pub elapsed_s: f64,
    /// Total beats emitted across all sessions.
    pub beats: usize,
    /// Median per-hop processing latency, microseconds.
    pub hop_p50_us: f64,
    /// 99th-percentile per-hop processing latency, microseconds.
    pub hop_p99_us: f64,
    /// Engine errors observed (each quarantines one session).
    pub session_errors: usize,
    /// Quarantine retries attempted.
    pub session_retries: usize,
    /// Retries that came back clean (session resumed).
    pub session_recoveries: usize,
    /// Sessions still quarantined at report time.
    pub sessions_quarantined: usize,
    /// Quarantined sessions still inside their backoff window (they
    /// will skip the next tick).
    pub sessions_backing_off: usize,
    /// Quarantined sessions whose backoff has elapsed (they retry with
    /// a fresh engine on the next tick).
    pub sessions_retry_due: usize,
}

impl ScheduleReport {
    /// Sustained real-time sessions: session-seconds of signal processed
    /// per wall-clock second. A fleet of this many live 250 Hz streams
    /// would keep the host exactly saturated.
    #[must_use]
    pub fn sustained_sessions(&self) -> f64 {
        self.session_seconds / self.elapsed_s.max(1e-12)
    }
}

/// Drives N concurrent [`BeatStream`]s, one hop at a time, on the
/// calling thread.
#[derive(Debug)]
pub struct SessionScheduler {
    slots: Vec<SessionSlot>,
    config: PipelineConfig,
    hop: usize,
    fs: f64,
    /// Per-hop wall-clock costs in nanoseconds. A log-linear histogram
    /// (~3% bucket width) replaces the old sorted-`Vec` percentile scan:
    /// O(1) memory regardless of run length, O(buckets) quantile reads.
    hop_hist: LocalHistogram,
    ticks: usize,
    hop_us: cardiotouch_obs::Histogram,
    ticks_counter: cardiotouch_obs::Counter,
    beats_counter: cardiotouch_obs::Counter,
    /// `core.scheduler.session_errors` — engine errors (quarantines).
    errors_counter: cardiotouch_obs::Counter,
    /// `core.scheduler.session_retries` — post-backoff retry attempts.
    retries_counter: cardiotouch_obs::Counter,
    /// `core.scheduler.session_recoveries` — retries that came back clean.
    recoveries_counter: cardiotouch_obs::Counter,
    /// `core.scheduler.quarantined` — sessions sitting out, republished
    /// after every tick so fleet rebalancing sees live occupancy.
    quarantined_gauge: cardiotouch_obs::Gauge,
    /// First-tick hop latencies land here instead of `…hop_us`: the
    /// first hop pays thread-startup, page-fault and filter-priming
    /// warmup (observed 10–16 ms p999 against a 226 µs steady state on
    /// fleet shards), which would otherwise dominate the exported
    /// histogram's tail. The in-process [`SessionScheduler::report`]
    /// percentiles still cover the whole run.
    first_hop_us: cardiotouch_obs::Histogram,
}

/// Per-tick accounting deltas, flushed as one batched update per
/// counter at the end of the tick.
#[derive(Debug, Default)]
struct TickTallies {
    beats: u64,
    errors: u64,
    retries: u64,
    recoveries: u64,
}

impl SessionScheduler {
    /// Creates one engine per feed.
    ///
    /// # Errors
    ///
    /// * configuration and filter-design errors from engine
    ///   construction;
    /// * [`CoreError::ChannelLengthMismatch`] when a feed's channels
    ///   differ in length (or are empty).
    pub fn new(config: PipelineConfig, feeds: Vec<SessionFeed>) -> Result<Self, CoreError> {
        let fs = config.fs;
        let hop = fs as usize;
        let mut slots = Vec::with_capacity(feeds.len());
        for feed in feeds {
            if feed.ecg.len() != feed.z.len() || feed.ecg.is_empty() {
                return Err(CoreError::ChannelLengthMismatch {
                    ecg_len: feed.ecg.len(),
                    z_len: feed.z.len(),
                });
            }
            slots.push(SessionSlot {
                stream: BeatStream::new(config)?,
                feed,
                cursor: 0,
                beats: 0,
                quarantine: None,
                backoff: 1,
                retrying: false,
                errors: 0,
                retries: 0,
                recoveries: 0,
                ecg_scratch: Vec::new(),
                z_scratch: Vec::new(),
            });
        }
        // The gauge handle lives in the process-wide registry; the
        // scheduler only needs to publish the fleet size once.
        cardiotouch_obs::gauge("core.scheduler.sessions_active").set(slots.len() as i64);
        Ok(Self {
            slots,
            config,
            hop,
            fs,
            hop_hist: LocalHistogram::new(),
            ticks: 0,
            hop_us: cardiotouch_obs::histogram("core.scheduler.hop_us"),
            ticks_counter: cardiotouch_obs::counter("core.scheduler.ticks"),
            beats_counter: cardiotouch_obs::counter("core.scheduler.beats"),
            errors_counter: cardiotouch_obs::counter("core.scheduler.session_errors"),
            retries_counter: cardiotouch_obs::counter("core.scheduler.session_retries"),
            recoveries_counter: cardiotouch_obs::counter("core.scheduler.session_recoveries"),
            quarantined_gauge: cardiotouch_obs::gauge("core.scheduler.quarantined"),
            first_hop_us: cardiotouch_obs::histogram("core.scheduler.first_hop_us"),
        })
    }

    /// Redirects this scheduler's live metrics under `prefix` (builder
    /// style): hop latencies go to `<prefix>.hop_us` and quarantine
    /// occupancy to `<prefix>.quarantined`. Fleet shards use
    /// `core.fleet.shard<i>` so per-shard latency and occupancy stay
    /// observable without post-hoc filtering — and so N shards do not
    /// fight over one global gauge.
    #[must_use]
    pub fn with_metric_prefix(mut self, prefix: &str) -> Self {
        self.hop_us = cardiotouch_obs::histogram(&format!("{prefix}.hop_us"));
        self.first_hop_us = cardiotouch_obs::histogram(&format!("{prefix}.first_hop_us"));
        self.quarantined_gauge = cardiotouch_obs::gauge(&format!("{prefix}.quarantined"));
        self
    }

    /// Number of scheduled sessions.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.slots.len()
    }

    /// Admits a fresh session mid-run (the fleet ingest path). The new
    /// engine starts at the beginning of its feed; tick accounting
    /// treats it like any other slot from the next tick on.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] for an invalid feed;
    /// * engine construction errors.
    pub fn admit(&mut self, feed: SessionFeed) -> Result<(), CoreError> {
        if feed.ecg.len() != feed.z.len() || feed.ecg.is_empty() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: feed.ecg.len(),
                z_len: feed.z.len(),
            });
        }
        self.slots.push(SessionSlot {
            stream: BeatStream::new(self.config)?,
            feed,
            cursor: 0,
            beats: 0,
            quarantine: None,
            backoff: 1,
            retrying: false,
            errors: 0,
            retries: 0,
            recoveries: 0,
            ecg_scratch: Vec::new(),
            z_scratch: Vec::new(),
        });
        Ok(())
    }

    /// Lifts one migratable session out of the slab: the most recently
    /// admitted slot that is **not** quarantined (a quarantined session
    /// has no healthy engine state worth moving — its snapshot would be
    /// rebuilt from scratch on retry anyway, so rebalancing skips it).
    /// Returns `None` when every remaining slot is quarantined or the
    /// slab is empty.
    pub fn extract_migratable(&mut self) -> Option<MigratedSession> {
        let idx = self.slots.iter().rposition(|s| s.quarantine.is_none())?;
        let slot = self.slots.swap_remove(idx);
        Some(MigratedSession {
            snapshot: slot.stream.snapshot(),
            feed: slot.feed,
            cursor: slot.cursor,
            beats: slot.beats,
            errors: slot.errors,
            retries: slot.retries,
            recoveries: slot.recoveries,
        })
    }

    /// Admits a migrated session, rebuilding its engine from the
    /// carried snapshot. The restored stream resumes bitwise
    /// identically to the extracted one.
    ///
    /// # Errors
    ///
    /// Restore errors when the snapshot does not match this
    /// scheduler's configuration.
    pub fn admit_migrated(&mut self, m: &MigratedSession) -> Result<(), CoreError> {
        let stream = BeatStream::restore(self.config, &m.snapshot)?;
        self.slots.push(SessionSlot {
            stream,
            feed: m.feed.clone(),
            cursor: m.cursor,
            beats: m.beats,
            quarantine: None,
            backoff: 1,
            retrying: false,
            errors: m.errors,
            retries: m.retries,
            recoveries: m.recoveries,
            ecg_scratch: Vec::new(),
            z_scratch: Vec::new(),
        });
        Ok(())
    }

    /// Advances every session by one hop (1 s of signal) on the calling
    /// thread, recording each hop's wall-clock cost. Emitted beats are
    /// counted per session; per-beat payloads are dropped here because
    /// fleet throughput, not beat content, is what the scheduler
    /// measures.
    ///
    /// A session whose engine errors is **quarantined**, never allowed
    /// to fail the whole tick: it sits out for 1, 2, 4, … up to 32
    /// ticks (`MAX_BACKOFF_TICKS`; its cursor still advances — the
    /// signal it missed while down is gone, exactly as on a real
    /// uplink), then retries with a freshly constructed engine. A clean
    /// retry resets the backoff and counts as a recovery.
    ///
    /// # Errors
    ///
    /// Never fails in practice: feeds are validated at construction and
    /// engine errors are absorbed into quarantine. The `Result` is kept
    /// for API stability.
    pub fn tick(&mut self) -> Result<(), CoreError> {
        let hop = self.hop;
        let config = self.config;
        let hop_us = self.tick_hop_us();
        let mut tallies = TickTallies::default();
        for slot in &mut self.slots {
            let (outcome, ns) = Self::advance(slot, hop, &config);
            Self::settle(slot, outcome, ns, &mut self.hop_hist, &hop_us, &mut tallies);
        }
        self.finish_tick(&tallies);
        Ok(())
    }

    /// The exported hop-latency sink for this tick: the first tick's
    /// warmup-skewed hops go to `…first_hop_us`, steady-state hops to
    /// `…hop_us` (see the `first_hop_us` field docs).
    fn tick_hop_us(&self) -> cardiotouch_obs::Histogram {
        if self.ticks == 0 {
            self.first_hop_us.clone()
        } else {
            self.hop_us.clone()
        }
    }

    /// One slot's share of a tick: quarantine bookkeeping, then a timed
    /// hop.
    fn advance(
        slot: &mut SessionSlot,
        hop: usize,
        config: &PipelineConfig,
    ) -> (Result<usize, CoreError>, u64) {
        // Quarantined sessions skip the tick; their input keeps
        // flowing past them (cursor advance without processing).
        if let Some(q) = &mut slot.quarantine {
            if q.skip > 0 {
                q.skip -= 1;
                slot.cursor += hop;
                return (Ok(0), 0);
            }
            // Backoff elapsed: retry with a fresh engine (the
            // old one may hold poisoned filter state).
            slot.retries += 1;
            slot.retrying = true;
            match BeatStream::new(*config) {
                Ok(stream) => slot.stream = stream,
                Err(e) => {
                    slot.cursor += hop;
                    return (Err(e), 0);
                }
            }
            slot.quarantine = None;
        }
        let start = Instant::now();
        let outcome = slot.step(hop).map(|beats| beats.len());
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (outcome, ns)
    }

    /// Post-hop accounting for one slot: recovery/quarantine state
    /// transitions and latency recording.
    fn settle(
        slot: &mut SessionSlot,
        outcome: Result<usize, CoreError>,
        ns: u64,
        hop_hist: &mut LocalHistogram,
        hop_us: &cardiotouch_obs::Histogram,
        tallies: &mut TickTallies,
    ) {
        if slot.retrying {
            tallies.retries += 1;
        }
        match outcome {
            Ok(n) => {
                tallies.beats += n as u64;
                if slot.retrying {
                    slot.retrying = false;
                    slot.recoveries += 1;
                    slot.backoff = 1;
                    tallies.recoveries += 1;
                }
                if ns > 0 {
                    hop_hist.record(ns);
                    hop_us.record((ns / 1_000).max(1));
                }
            }
            Err(_) => {
                slot.retrying = false;
                slot.errors += 1;
                tallies.errors += 1;
                slot.quarantine = Some(Quarantine { skip: slot.backoff });
                slot.backoff = (slot.backoff * 2).min(MAX_BACKOFF_TICKS);
            }
        }
    }

    /// Flushes one tick's tallies to the registry and republishes the
    /// quarantine occupancy gauge.
    fn finish_tick(&mut self, tallies: &TickTallies) {
        self.ticks += 1;
        self.ticks_counter.inc();
        self.beats_counter.add(tallies.beats);
        if tallies.errors > 0 {
            self.errors_counter.add(tallies.errors);
        }
        if tallies.retries > 0 {
            self.retries_counter.add(tallies.retries);
        }
        if tallies.recoveries > 0 {
            self.recoveries_counter.add(tallies.recoveries);
        }
        let quarantined = self.slots.iter().filter(|s| s.quarantine.is_some()).count();
        self.quarantined_gauge.set(quarantined as i64);
    }

    /// Runs `ticks` hops and returns the aggregate report.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from [`SessionScheduler::tick`].
    pub fn run(&mut self, ticks: usize) -> Result<ScheduleReport, CoreError> {
        let start = Instant::now();
        for _ in 0..ticks {
            self.tick()?;
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        Ok(self.report(elapsed_s))
    }

    /// Builds the report for everything ticked so far. Quantiles come
    /// from the log-linear hop histogram (≲3% relative bucket error)
    /// rather than a sorted copy of every sample.
    #[must_use]
    pub fn report(&self, elapsed_s: f64) -> ScheduleReport {
        let pct = |p: f64| -> f64 {
            if self.hop_hist.count() == 0 {
                return 0.0;
            }
            self.hop_hist.quantile(p) / 1e3
        };
        ScheduleReport {
            sessions: self.sessions(),
            ticks: self.ticks,
            session_seconds: self.sessions() as f64 * self.ticks as f64 * self.hop as f64 / self.fs,
            elapsed_s,
            beats: self.slots.iter().map(|s| s.beats).sum(),
            hop_p50_us: pct(0.50),
            hop_p99_us: pct(0.99),
            session_errors: self.slots.iter().map(|s| s.errors).sum(),
            session_retries: self.slots.iter().map(|s| s.retries).sum(),
            session_recoveries: self.slots.iter().map(|s| s.recoveries).sum(),
            sessions_quarantined: self.slots.iter().filter(|s| s.quarantine.is_some()).count(),
            sessions_backing_off: self
                .slots
                .iter()
                .filter(|s| s.quarantine.is_some_and(|q| q.skip > 0))
                .count(),
            sessions_retry_due: self
                .slots
                .iter()
                .filter(|s| s.quarantine.is_some_and(|q| q.skip == 0))
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardiotouch_physio::path::Position;
    use cardiotouch_physio::scenario::{PairedRecording, Protocol};
    use cardiotouch_physio::subject::Population;

    fn feeds(count: usize) -> Vec<SessionFeed> {
        let population = Population::reference_five();
        let rec = PairedRecording::generate(
            &population.subjects()[0],
            Position::One,
            50_000.0,
            &Protocol::paper_default(),
            11,
        )
        .unwrap();
        let ecg = Arc::new(rec.device_ecg().to_vec());
        let z = Arc::new(rec.device_z().to_vec());
        (0..count)
            .map(|i| SessionFeed::clean(Arc::clone(&ecg), Arc::clone(&z), (i * 977) % ecg.len()))
            .collect()
    }

    #[test]
    fn schedules_many_sessions_and_reports_throughput() {
        let mut sched =
            SessionScheduler::new(PipelineConfig::paper_default(250.0), feeds(8)).unwrap();
        let report = sched.run(12).unwrap();
        assert_eq!(report.sessions, 8);
        assert_eq!(report.ticks, 12);
        assert!((report.session_seconds - 96.0).abs() < 1e-9);
        assert!(report.beats > 8 * 5, "only {} beats", report.beats);
        assert!(report.sustained_sessions() > 0.0);
        assert!(report.hop_p99_us >= report.hop_p50_us);
        assert!(report.hop_p50_us > 0.0);
    }

    #[test]
    fn sessions_are_independent_of_fleet_size() {
        // A session's emissions must not depend on who else is scheduled.
        let run = |count: usize| -> usize {
            let mut sched =
                SessionScheduler::new(PipelineConfig::paper_default(250.0), feeds(count)).unwrap();
            sched.run(10).unwrap();
            sched.slots[0].beats
        };
        assert_eq!(run(1), run(6));
    }

    #[test]
    fn wrapping_feed_keeps_sessions_alive_past_template_end() {
        let mut sched =
            SessionScheduler::new(PipelineConfig::paper_default(250.0), feeds(2)).unwrap();
        // 40 ticks × 1 s > the 30 s template: the feed must wrap, not panic.
        let report = sched.run(40).unwrap();
        assert_eq!(report.ticks, 40);
        assert!(report.beats > 0);
    }

    #[test]
    fn mismatched_feed_rejected() {
        let bad = vec![SessionFeed::clean(
            Arc::new(vec![0.0; 10]),
            Arc::new(vec![0.0; 9]),
            0,
        )];
        assert!(SessionScheduler::new(PipelineConfig::paper_default(250.0), bad).is_err());
    }

    #[test]
    fn hard_fault_quarantines_one_session_not_the_tick() {
        use cardiotouch_physio::faults::FaultScenario;
        let mut all = feeds(4);
        // Session 2 hard-faults at 5 s for 1 s; everyone else is clean.
        let scenario = Arc::new(FaultScenario::parse("fail@5s+1s", 250.0).unwrap());
        all[2] = all[2].clone().with_faults(scenario);
        let mut sched = SessionScheduler::new(PipelineConfig::paper_default(250.0), all).unwrap();
        let report = sched.run(20).unwrap();
        assert_eq!(report.ticks, 20, "the tick loop must never fail");
        assert!(report.session_errors >= 1, "the fault must surface");
        assert!(
            report.session_recoveries >= 1,
            "the session must come back: {report:?}"
        );
        assert_eq!(report.sessions_quarantined, 0);
        // Clean sessions were unaffected: they emitted beats every tick.
        assert!(report.beats > 3 * 10, "only {} beats", report.beats);
    }

    #[test]
    fn soft_faults_degrade_a_session_without_errors() {
        use cardiotouch_physio::faults::FaultScenario;
        let mut all = feeds(2);
        let scenario = Arc::new(FaultScenario::parse("drop@4s+3s,sat=0.4@12s+2s", 250.0).unwrap());
        all[1] = all[1].clone().with_faults(scenario);
        let mut sched = SessionScheduler::new(PipelineConfig::paper_default(250.0), all).unwrap();
        let report = sched.run(25).unwrap();
        assert_eq!(report.session_errors, 0);
        assert!(report.beats > 0);
        // The faulted session still produces beats (clean stretches),
        // just fewer than its clean twin.
        assert!(sched.slots[1].beats > 0);
        assert!(sched.slots[1].beats <= sched.slots[0].beats);
    }

    #[test]
    fn migration_between_schedulers_is_bitwise() {
        let cfg = PipelineConfig::paper_default(250.0);
        // Reference: one scheduler runs a single session for 20 ticks.
        let mut reference = SessionScheduler::new(cfg, feeds(1)).unwrap();
        reference.run(20).unwrap();
        // Migrated: 8 ticks on shard A, move the session, 12 on shard B.
        let mut a = SessionScheduler::new(cfg, feeds(1)).unwrap();
        for _ in 0..8 {
            a.tick().unwrap();
        }
        let m = a.extract_migratable().expect("one healthy session");
        assert_eq!(a.sessions(), 0);
        assert_eq!(m.cursor, 8 * 250);
        let mut b = SessionScheduler::new(cfg, Vec::new()).unwrap();
        b.admit_migrated(&m).unwrap();
        for _ in 0..12 {
            b.tick().unwrap();
        }
        assert_eq!(b.slots[0].beats, reference.slots[0].beats);
        assert_eq!(b.slots[0].cursor, reference.slots[0].cursor);
    }

    #[test]
    fn extract_skips_quarantined_sessions() {
        use cardiotouch_physio::faults::FaultScenario;
        let ecg = Arc::new(vec![0.5; 7500]);
        let z = Arc::new(vec![430.0; 7500]);
        let scenario = Arc::new(FaultScenario::parse("fail@0+3600s", 250.0).unwrap());
        let feeds = vec![SessionFeed::clean(ecg, z, 0).with_faults(scenario)];
        // A private metric prefix keeps the gauge assertion immune to
        // other tests' schedulers publishing to the global name.
        let mut sched = SessionScheduler::new(PipelineConfig::paper_default(250.0), feeds)
            .unwrap()
            .with_metric_prefix("test.scheduler.extract_skips");
        sched.run(3).unwrap();
        let report = sched.report(1.0);
        assert_eq!(report.sessions_quarantined, 1);
        assert_eq!(
            report.sessions_backing_off + report.sessions_retry_due,
            report.sessions_quarantined
        );
        assert!(
            sched.extract_migratable().is_none(),
            "a quarantined session must not migrate"
        );
        // The gauge tracks quarantine occupancy after every tick.
        let snap = cardiotouch_obs::snapshot();
        assert_eq!(
            snap.gauge("test.scheduler.extract_skips.quarantined"),
            Some(1)
        );
    }

    #[test]
    fn admit_grows_the_slab_mid_run() {
        let mut sched =
            SessionScheduler::new(PipelineConfig::paper_default(250.0), feeds(1)).unwrap();
        sched.run(2).unwrap();
        sched.admit(feeds(1).pop().unwrap()).unwrap();
        assert_eq!(sched.sessions(), 2);
        sched.run(2).unwrap();
        assert!(sched.slots[1].cursor == 2 * 250);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        use cardiotouch_physio::faults::FaultScenario;
        // A session that hard-faults forever: every retry fails again.
        let ecg = Arc::new(vec![0.5; 7500]);
        let z = Arc::new(vec![430.0; 7500]);
        let scenario = Arc::new(FaultScenario::parse("fail@0+3600s", 250.0).unwrap());
        let feeds = vec![SessionFeed::clean(ecg, z, 0).with_faults(scenario)];
        let mut sched = SessionScheduler::new(PipelineConfig::paper_default(250.0), feeds).unwrap();
        let report = sched.run(200).unwrap();
        // With 1+2+4+…+32+32… backoff, 200 ticks see ~9 attempts, far
        // fewer than the 200 a retry-every-tick policy would burn.
        assert!(
            report.session_errors <= 12,
            "{} errors — backoff not applied",
            report.session_errors
        );
        assert!(report.session_errors >= 5);
        assert_eq!(report.session_recoveries, 0);
        assert_eq!(report.sessions_quarantined, 1);
        assert_eq!(report.beats, 0);
    }
}
