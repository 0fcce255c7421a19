//! Streaming, beat-to-beat execution of the pipeline — the software
//! architecture of the firmware flowchart (Fig 3).
//!
//! The embedded device cannot buffer a whole session; it processes each
//! ADC chunk as it arrives and emits every beat's parameters as soon as
//! the beat completes. Two execution models live here:
//!
//! * [`BeatStream`] — the **incremental engine**: stateful streaming
//!   filters ([`cardiotouch_dsp::streaming`]), the online Pan–Tompkins
//!   detector ([`cardiotouch_ecg::online`]) and the incremental B/C/X
//!   delineator ([`cardiotouch_icg::online`]). Per-hop cost is O(hop),
//!   independent of any window length; per-session memory is a few
//!   seconds of signal (≈20 KB at 250 Hz — within the STM32L151's 48 KB
//!   budget with room for the radio stack).
//! * [`ReanalysisBeatStream`] — the original windowed engine, kept as
//!   the equivalence oracle and benchmark baseline: it re-runs the whole
//!   block pipeline over a 20 s sliding window every 1 s hop, so each
//!   emitted beat costs ~20× redundant filtering and detection.
//!
//! Both accept chunks of any size and emit [`BeatReport`]s in absolute
//! session coordinates. The incremental engine additionally quantizes
//! all internal state transitions to exact 1 s hops of the *absolute*
//! sample count, which makes its emissions bitwise chunk-size invariant
//! (the windowed engine is only invariant up to the final partial hop).

use std::collections::VecDeque;
use std::sync::Arc;

use cardiotouch_dsp::design_cache;
use cardiotouch_dsp::fir::Fir;
use cardiotouch_dsp::streaming::{HistoryRing, StreamingDerivative, StreamingZeroPhase};
use cardiotouch_dsp::window::Window;
use cardiotouch_dsp::zero_phase::{filtfilt_fir_into, ZeroPhaseScratch};
use cardiotouch_ecg::online::OnlinePanTompkins;
use cardiotouch_icg::filter::IcgConditioner;
use cardiotouch_icg::online::{BeatDelineator, OnlineBeat};

use crate::config::PipelineConfig;
use crate::pipeline::{report_from_points, BeatReport, Pipeline};
use crate::snapshot::{BeatStreamSnapshot, MonitorState};
use crate::CoreError;

/// Per-channel signal condition in the degradation ladder.
///
/// The ladder replaces the original "hold the last finite sample
/// forever" policy with explicit semantics:
///
/// ```text
///            ≥0.1 s suspect              ≥ holdover cap suspect
///   Good ───────────────────▶ Degraded ───────────────────▶ Lost
///    ▲                           │ ≥0.25 s clean              │
///    │                           ▼                            │ ≥0.25 s clean
///    │ ≥2 s clean (re-lock)   Good                            ▼
///    └────────────────────────────────────────────────── Recovering
/// ```
///
/// A sample is *suspect* when it is non-finite, clamped at a rail, or
/// part of a flatline run (bit-identical consecutive values — an open
/// measurement loop). `Lost` stops data fabrication: the channel is fed
/// a neutral value and, on contact return, the conditioning chain is
/// warm-restarted at the next hop boundary and beats are suppressed
/// until the detectors re-lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SignalState {
    /// Clean contact; beats emit as usual.
    Good,
    /// Contact has returned after a loss; detectors are re-locking and
    /// beats overlapping this phase are suppressed.
    Recovering,
    /// Suspect signal beyond the degrade threshold but within the
    /// holdover cap; beats are emitted flagged, not clean.
    Degraded,
    /// Sustained suspect signal beyond the holdover cap; no data is
    /// fabricated and no beat may span this stretch.
    Lost,
}

impl SignalState {
    fn severity(self) -> u8 {
        match self {
            SignalState::Good => 0,
            SignalState::Recovering => 1,
            SignalState::Degraded => 2,
            SignalState::Lost => 3,
        }
    }

    fn from_severity(sev: u8) -> Self {
        match sev {
            0 => SignalState::Good,
            1 => SignalState::Recovering,
            2 => SignalState::Degraded,
            _ => SignalState::Lost,
        }
    }
}

/// A beat report annotated with the ladder's quality verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualifiedBeat {
    /// The hemodynamic parameters, as [`BeatStream::push`] emits them.
    pub report: BeatReport,
    /// Worst combined channel state over the beat's `[r, next_r)`
    /// window. [`SignalState::Lost`] never appears here — such beats are
    /// suppressed before emission.
    pub state: SignalState,
    /// Morphology confidence from the online delineator's ensemble
    /// template ([`cardiotouch_icg::quality::beat_sqi`]); `None` during
    /// template warm-up.
    pub sqi: Option<f64>,
}

impl QualifiedBeat {
    /// `true` when the ladder saw clean contact for the whole beat and
    /// the morphology confidence (when available) clears `threshold`.
    #[must_use]
    pub fn is_clean(&self, threshold: f64) -> bool {
        self.state == SignalState::Good && self.sqi.map_or(true, |s| s >= threshold)
    }
}

/// Flatline run length, seconds, before samples count as suspect.
const FLAT_S: f64 = 0.08;
/// Suspect run, seconds, before a channel degrades.
const DEGRADE_S: f64 = 0.10;
/// Clean run, seconds, before a lost channel starts recovering (and a
/// degraded one returns to good).
const RECOVER_S: f64 = 0.25;
/// Clean run, seconds, of detector re-lock before a recovering channel
/// is good again (matches the QRS warm-restart threshold window).
const RELOCK_S: f64 = 2.0;
/// ECG rail magnitude, millivolts: far beyond any physiological R wave,
/// reached only by a saturated front end or an open loop.
const ECG_RAIL_MV: f64 = 25.0;
/// Impedance rails, ohms: a hand-to-hand path reads hundreds of ohms;
/// at or below zero (short) or in the kilo-ohm range (open loop) the
/// loop is broken.
const Z_RAIL_LO_OHM: f64 = 1.0;
const Z_RAIL_HI_OHM: f64 = 3000.0;

/// Flatline/rail/finiteness detectors and the per-channel state machine.
#[derive(Debug, Clone)]
struct ChannelMonitor {
    state: SignalState,
    /// Consecutive suspect samples (retroactively covers a flat run).
    bad_run: usize,
    /// Consecutive clean samples.
    good_run: usize,
    /// Consecutive bit-identical raw samples.
    flat_run: usize,
    last_bits: u64,
    /// A non-finite sample occurred in the current suspect run (the run
    /// was being bridged by holdover fabrication).
    run_had_nonfinite: bool,
    rail_lo: f64,
    rail_hi: f64,
    flat: usize,
    degrade: usize,
    lost: usize,
    recover: usize,
    relock: usize,
}

impl ChannelMonitor {
    fn new(fs: f64, rail_lo: f64, rail_hi: f64, holdover_cap_s: f64) -> Self {
        Self {
            state: SignalState::Good,
            bad_run: 0,
            good_run: 0,
            flat_run: 0,
            last_bits: f64::NAN.to_bits(),
            run_had_nonfinite: false,
            rail_lo,
            rail_hi,
            flat: ((FLAT_S * fs) as usize).max(2),
            degrade: ((DEGRADE_S * fs) as usize).max(1),
            lost: ((holdover_cap_s * fs) as usize).max(2),
            recover: ((RECOVER_S * fs) as usize).max(1),
            relock: ((RELOCK_S * fs) as usize).max(1),
        }
    }

    /// Observes one raw sample and advances the ladder; returns the
    /// state before the observation so the caller can react to edges.
    fn observe(&mut self, v: f64) -> SignalState {
        let prev = self.state;
        let bits = v.to_bits();
        if bits == self.last_bits {
            self.flat_run += 1;
        } else {
            self.flat_run = 0;
            self.last_bits = bits;
        }
        let finite = v.is_finite();
        let railed = finite && (v <= self.rail_lo || v >= self.rail_hi);
        let flat = self.flat_run >= self.flat;
        if !finite || railed || flat {
            if self.bad_run == 0 {
                self.run_had_nonfinite = false;
            }
            self.good_run = 0;
            self.bad_run += 1;
            if flat {
                // The whole flat run was suspect in hindsight.
                self.bad_run = self.bad_run.max(self.flat_run + 1);
            }
            if !finite {
                self.run_had_nonfinite = true;
            }
            if self.bad_run >= self.lost {
                self.state = SignalState::Lost;
            } else if self.bad_run >= self.degrade && self.state != SignalState::Lost {
                self.state = SignalState::Degraded;
            }
        } else {
            self.bad_run = 0;
            self.good_run += 1;
            match self.state {
                SignalState::Lost if self.good_run >= self.recover => {
                    self.state = SignalState::Recovering;
                }
                SignalState::Degraded if self.good_run >= self.recover => {
                    self.state = SignalState::Good;
                }
                SignalState::Recovering if self.good_run >= self.relock => {
                    self.state = SignalState::Good;
                }
                _ => {}
            }
        }
        prev
    }

    /// Captures the run counters and machine state (thresholds are
    /// derived from the configuration and re-computed on restore).
    fn snapshot(&self) -> MonitorState {
        MonitorState {
            severity: self.state.severity(),
            bad_run: self.bad_run,
            good_run: self.good_run,
            flat_run: self.flat_run,
            last_bits: self.last_bits,
            run_had_nonfinite: self.run_had_nonfinite,
        }
    }

    /// Overwrites the mutable state from a snapshot.
    fn restore(&mut self, state: &MonitorState) {
        self.state = SignalState::from_severity(state.severity);
        self.bad_run = state.bad_run;
        self.good_run = state.good_run;
        self.flat_run = state.flat_run;
        self.last_bits = state.last_bits;
        self.run_had_nonfinite = state.run_had_nonfinite;
    }
}

/// Worst combined ladder state over the absolute range `[lo, hi)`.
///
/// `log` holds `(absolute sample, severity)` transitions in ascending
/// order, each meaning "combined severity from this sample onward", with
/// an implicit `(0, Good)` before the first entry.
fn worst_state(log: &VecDeque<(usize, u8)>, lo: usize, hi: usize) -> SignalState {
    let mut sev = 0;
    for &(idx, s) in log {
        if idx >= hi {
            break;
        }
        if idx <= lo {
            // The newest entry at or before `lo` governs the window start.
            sev = s;
        } else {
            sev = sev.max(s);
        }
    }
    SignalState::from_severity(sev)
}

/// Incremental beat-to-beat processor with O(hop) per-hop cost.
///
/// Pipeline per hop (1 s of samples): raw ECG → online Pan–Tompkins →
/// local zero-phase FIR apex refinement; raw Z → streaming central
/// difference → negation → streaming zero-phase 20 Hz low-pass →
/// streaming zero-phase 0.4 Hz high-pass → incremental B/C/X
/// delineation → the same per-beat interval/hemodynamics arithmetic the
/// batch [`Pipeline`] runs.
///
/// Non-finite input samples (NaN/±∞ from a saturated front-end) are
/// replaced at ingestion by the last finite value of the same channel,
/// so a transient glitch cannot poison the recursive filter states.
#[derive(Debug, Clone)]
pub struct BeatStream {
    config: PipelineConfig,
    /// Internal processing quantum: 1 s of samples.
    hop: usize,
    /// Raw samples awaiting a complete hop (sanitized).
    pend_ecg: Vec<f64>,
    pend_z: Vec<f64>,
    /// Absolute count of samples accepted by `push`.
    pushed: usize,
    /// Absolute count of samples consumed by the engine (hop multiple).
    processed: usize,
    /// Last finite sample per channel, for glitch hold-over.
    last_ecg: f64,
    last_z: f64,
    z_seen_finite: bool,
    /// Running sum of processed Z for the Z0 estimate.
    z_sum: f64,
    // --- ECG path ---
    qrs: OnlinePanTompkins,
    ecg_fir: Arc<Fir>,
    ecg_ring: HistoryRing,
    /// Confirmed raw-apex R peaks awaiting refinement context.
    raw_rs: VecDeque<usize>,
    last_refined_r: Option<usize>,
    zp: ZeroPhaseScratch,
    refine_buf: Vec<f64>,
    /// Raw context kept around each apex for local zero-phase filtering.
    ctx: usize,
    /// Half-width of the apex search around the online detection.
    search: usize,
    // --- ICG path ---
    deriv: StreamingDerivative,
    lp: StreamingZeroPhase,
    hp: StreamingZeroPhase,
    neg_buf: Vec<f64>,
    lp_buf: Vec<f64>,
    hp_buf: Vec<f64>,
    delineator: BeatDelineator,
    beats_scratch: Vec<OnlineBeat>,
    // --- observability (see DESIGN.md §6c) ---
    /// `core.stream.beats_emitted` — finalized reports handed to callers.
    beats_emitted: cardiotouch_obs::Counter,
    /// `core.stream.samples_sanitized` — non-finite samples replaced at
    /// ingestion (per channel sample, not per pair).
    samples_sanitized: cardiotouch_obs::Counter,
    /// `core.stream.holdover_events` — finite→non-finite transitions,
    /// i.e. distinct glitch bursts rather than glitched samples.
    holdover_events: cardiotouch_obs::Counter,
    ecg_in_holdover: bool,
    z_in_holdover: bool,
    // --- degradation ladder (see DESIGN.md §6d) ---
    ecg_mon: ChannelMonitor,
    z_mon: ChannelMonitor,
    /// Slow EMA of clean impedance samples — the neutral fill while the
    /// Z channel is lost (frozen for the loss duration).
    z_ema: f64,
    z_ema_init: bool,
    /// Combined-severity transition log `(absolute sample, severity)`
    /// for worst-state-over-window queries at beat emission.
    state_log: VecDeque<(usize, u8)>,
    /// Absolute samples of Lost→Recovering transitions whose warm
    /// restart has not yet been applied (applied at the start of the hop
    /// containing them, keeping restarts chunk-size invariant).
    restarts: VecDeque<usize>,
    /// Beats whose R lies before this absolute index are suppressed
    /// (re-lock window after each loss).
    suppress_before: usize,
    /// `core.stream.state_transitions` — per-channel ladder edges.
    state_transitions: cardiotouch_obs::Counter,
    /// `core.stream.holdover_truncated` — suspect runs that hit the
    /// holdover cap while being bridged with fabricated samples.
    holdover_truncated: cardiotouch_obs::Counter,
    /// `core.stream.beats_suppressed` — beats dropped by the ladder
    /// (loss overlap or re-lock window).
    beats_suppressed: cardiotouch_obs::Counter,
    /// `core.stream.beats_degraded` — beats emitted flagged (ladder
    /// state not `Good`, or SQI below the configured threshold).
    beats_degraded: cardiotouch_obs::Counter,
    /// `core.stream.hop_us` — per-hop wall time. Cached handle: the
    /// per-hop path must never pay the registry's name lookup (a mutex
    /// and a map probe per hop showed up as the obs overhead
    /// regression).
    hop_us: cardiotouch_obs::Histogram,
}

impl BeatStream {
    /// Creates an incremental stream for the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and filter-design errors.
    pub fn new(config: PipelineConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let fs = config.fs;
        let hop = fs as usize;
        // The zero-phase stages mirror the batch conditioner's designs
        // (shared via the design cache) and edge extensions. Settle
        // margins: the 20 Hz low-pass transient dies in tens of samples
        // (0.5 s is ~24 time constants); the 0.4 Hz high-pass rings for
        // ~0.56 s, so 2 s of right context leaves ~1% residual — well
        // inside the B/X detection tolerances.
        let lp_filter = design_cache::butterworth_lowpass(IcgConditioner::DEFAULT_ORDER, 20.0, fs)
            .map_err(cardiotouch_icg::IcgError::from)?;
        let hp_filter = design_cache::butterworth_highpass(2, IcgConditioner::HIGHPASS_HZ, fs)
            .map_err(cardiotouch_icg::IcgError::from)?;
        let block = (hop / 2).max(1);
        Ok(Self {
            config,
            hop,
            pend_ecg: Vec::new(),
            pend_z: Vec::new(),
            pushed: 0,
            processed: 0,
            last_ecg: 0.0,
            last_z: 0.0,
            z_seen_finite: false,
            z_sum: 0.0,
            qrs: OnlinePanTompkins::new(fs)?,
            ecg_fir: design_cache::fir_bandpass(32, 0.05, 40.0, fs, Window::Hamming)
                .map_err(cardiotouch_ecg::EcgError::from)?,
            ecg_ring: HistoryRing::new(),
            raw_rs: VecDeque::new(),
            last_refined_r: None,
            zp: ZeroPhaseScratch::new(),
            refine_buf: Vec::new(),
            ctx: (0.4 * fs) as usize,
            search: (0.04 * fs) as usize,
            deriv: StreamingDerivative::new(fs),
            lp: StreamingZeroPhase::new(
                lp_filter,
                (0.5 * fs) as usize,
                3 * 6 * (IcgConditioner::DEFAULT_ORDER + 1),
                block,
            ),
            hp: StreamingZeroPhase::new(
                hp_filter,
                (2.0 * fs) as usize,
                (fs / IcgConditioner::HIGHPASS_HZ) as usize,
                block,
            ),
            neg_buf: Vec::new(),
            lp_buf: Vec::new(),
            hp_buf: Vec::new(),
            delineator: BeatDelineator::with_strategy(
                fs,
                config.x_search,
                config.delineation,
                config.min_rr_s,
                config.max_rr_s,
            )?,
            beats_scratch: Vec::new(),
            beats_emitted: cardiotouch_obs::counter("core.stream.beats_emitted"),
            samples_sanitized: cardiotouch_obs::counter("core.stream.samples_sanitized"),
            holdover_events: cardiotouch_obs::counter("core.stream.holdover_events"),
            ecg_in_holdover: false,
            z_in_holdover: false,
            ecg_mon: ChannelMonitor::new(fs, -ECG_RAIL_MV, ECG_RAIL_MV, config.holdover_cap_s),
            z_mon: ChannelMonitor::new(fs, Z_RAIL_LO_OHM, Z_RAIL_HI_OHM, config.holdover_cap_s),
            z_ema: 0.0,
            z_ema_init: false,
            state_log: VecDeque::new(),
            restarts: VecDeque::new(),
            suppress_before: 0,
            state_transitions: cardiotouch_obs::counter("core.stream.state_transitions"),
            holdover_truncated: cardiotouch_obs::counter("core.stream.holdover_truncated"),
            beats_suppressed: cardiotouch_obs::counter("core.stream.beats_suppressed"),
            beats_degraded: cardiotouch_obs::counter("core.stream.beats_degraded"),
            hop_us: cardiotouch_obs::histogram("core.stream.hop_us"),
        })
    }

    /// Current ladder state of the `(ecg, z)` channels.
    #[must_use]
    pub fn channel_states(&self) -> (SignalState, SignalState) {
        (self.ecg_mon.state, self.z_mon.state)
    }

    /// Absolute index of the next sample to be pushed.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pushed
    }

    /// Pushes one chunk of simultaneous samples and returns the beats
    /// that completed since the previous call, in chronological order,
    /// with indices in **absolute** (whole-session) coordinates.
    ///
    /// Chunks of any size are accepted — including chunks far larger
    /// than any internal buffer; the engine consumes them in exact 1 s
    /// quanta, so emissions depend only on the total sample count.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when the chunks differ in
    ///   length.
    pub fn push(&mut self, ecg: &[f64], z: &[f64]) -> Result<Vec<BeatReport>, CoreError> {
        Ok(self
            .push_qualified(ecg, z)?
            .into_iter()
            .map(|q| q.report)
            .collect())
    }

    /// Like [`BeatStream::push`], but annotates every beat with the
    /// degradation ladder's verdict: the worst channel state over the
    /// beat window and the per-beat morphology confidence. Beats whose
    /// window overlaps a `Lost` stretch, or that fall in the re-lock
    /// window after a loss, are suppressed (counted in
    /// `core.stream.beats_suppressed`), never returned.
    ///
    /// On clean input every beat comes back `Good` and the emitted
    /// reports are bit-identical to [`BeatStream::push`]'s historical
    /// behaviour — the ladder only observes until a detector trips.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when the chunks differ in
    ///   length.
    pub fn push_qualified(
        &mut self,
        ecg: &[f64],
        z: &[f64],
    ) -> Result<Vec<QualifiedBeat>, CoreError> {
        if ecg.len() != z.len() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: ecg.len(),
                z_len: z.len(),
            });
        }
        // Metric deltas accumulate locally and flush as one batched
        // atomic add per counter per chunk, keeping the per-sample loop
        // free of shared-memory traffic.
        let mut sanitized: u64 = 0;
        let mut holdovers: u64 = 0;
        let mut transitions: u64 = 0;
        let mut truncated: u64 = 0;
        let mut last_sev = self.state_log.back().map_or(0, |&(_, sev)| sev);
        for (i, (&e, &zv)) in ecg.iter().zip(z).enumerate() {
            let idx = self.pushed + i;

            // Ladder detectors observe the *raw* samples; transitions
            // are pure functions of the absolute sample history, so the
            // ladder is chunk-size invariant by construction.
            let e_prev = self.ecg_mon.observe(e);
            let z_prev = self.z_mon.observe(zv);
            let (e_state, z_state) = (self.ecg_mon.state, self.z_mon.state);
            for (prev, now, mon) in [
                (e_prev, e_state, &self.ecg_mon),
                (z_prev, z_state, &self.z_mon),
            ] {
                if prev == now {
                    continue;
                }
                transitions += 1;
                if now == SignalState::Lost && mon.run_had_nonfinite {
                    // The holdover cap tripped while fabricating data.
                    truncated += 1;
                }
                if prev == SignalState::Lost && now == SignalState::Recovering {
                    // Warm-restart the conditioning chain at the next
                    // hop boundary and suppress beats until re-lock.
                    if self.restarts.back() != Some(&idx) {
                        self.restarts.push_back(idx);
                    }
                    self.suppress_before = self.suppress_before.max(idx + mon.relock);
                }
            }
            let sev = e_state.severity().max(z_state.severity());
            if sev != last_sev {
                self.state_log.push_back((idx, sev));
                last_sev = sev;
            }

            // ECG fill: hold the last finite value over glitches (the
            // recursive filters must never ingest a NaN), but stop
            // fabricating once the ladder declares the channel lost.
            if e.is_finite() {
                self.last_ecg = e;
                self.ecg_in_holdover = false;
            } else {
                sanitized += 1;
                if !self.ecg_in_holdover {
                    holdovers += 1;
                    self.ecg_in_holdover = true;
                }
            }
            self.pend_ecg.push(if e_state == SignalState::Lost {
                0.0
            } else {
                self.last_ecg
            });

            // Z fill: same policy; the neutral value is the frozen slow
            // EMA of clean impedance, so Z0 estimates do not drift
            // toward an arbitrary constant during a loss.
            if zv.is_finite() {
                self.last_z = zv;
                self.z_seen_finite = true;
                self.z_in_holdover = false;
                if z_state == SignalState::Good {
                    if self.z_ema_init {
                        self.z_ema += (zv - self.z_ema) / 256.0;
                    } else {
                        self.z_ema = zv;
                        self.z_ema_init = true;
                    }
                }
            } else {
                sanitized += 1;
                if !self.z_in_holdover {
                    holdovers += 1;
                    self.z_in_holdover = true;
                }
            }
            self.pend_z.push(if z_state == SignalState::Lost {
                self.z_ema
            } else if self.z_seen_finite {
                self.last_z
            } else {
                0.0
            });
        }
        self.pushed += ecg.len();
        if sanitized > 0 {
            self.samples_sanitized.add(sanitized);
            self.holdover_events.add(holdovers);
        }
        if transitions > 0 {
            self.state_transitions.add(transitions);
            self.holdover_truncated.add(truncated);
        }
        let mut out = Vec::new();
        let mut off = 0;
        while self.pend_ecg.len() - off >= self.hop {
            self.process_hop(off, &mut out);
            off += self.hop;
        }
        self.pend_ecg.drain(..off);
        self.pend_z.drain(..off);
        if !out.is_empty() {
            self.beats_emitted.add(out.len() as u64);
        }
        Ok(out)
    }

    /// Applies a deferred warm restart: the conditioning chain is reset
    /// to its start-of-stream state, the delineator drops anything that
    /// could span the gap, and its conditioned stream is zero-padded up
    /// to the current hop boundary so post-restart output stays aligned
    /// with the absolute R-peak clock.
    fn warm_restart(&mut self) {
        self.deriv.reset();
        self.lp.reset();
        self.hp.reset();
        self.qrs.restart();
        self.raw_rs.clear();
        self.delineator.abort_pending();
        self.delineator.pad_to(self.processed);
    }

    /// Consumes one exact hop starting at `off` in the pending buffers.
    fn process_hop(&mut self, off: usize, out: &mut Vec<QualifiedBeat>) {
        // Manual timing against the cached histogram handle: the
        // `span!` macro resolves its histogram by name on every drop (a
        // registry mutex, a map probe and a string allocation), which
        // is exactly the per-hop overhead the 2 % obs budget forbids.
        let t0 = cardiotouch_obs::enabled().then(|| cardiotouch_obs::registry().clock().now_ns());

        if self.take_restart() {
            self.warm_restart();
        }
        // ECG: raw ring (for apex refinement) and online QRS detection;
        // then the Z0 running sum and the cursor advance.
        let hop = self.hop;
        self.ecg_ring.extend(&self.pend_ecg[off..off + hop]);
        for i in off..off + hop {
            if let Some(r) = self.qrs.push(self.pend_ecg[i]) {
                self.raw_rs.push_back(r);
            }
        }
        for i in off..off + hop {
            self.z_sum += self.pend_z[i];
        }
        self.processed += hop;

        // ICG: Z → −dZ/dt → streaming zero-phase chain → delineator.
        self.neg_buf.clear();
        for i in off..off + hop {
            if let Some(d) = self.deriv.push(self.pend_z[i]) {
                self.neg_buf.push(-d);
            }
        }
        self.lp_buf.clear();
        self.lp.push_chunk(&self.neg_buf, &mut self.lp_buf);
        self.hp_buf.clear();
        self.hp.push_chunk(&self.lp_buf, &mut self.hp_buf);

        self.finish_hop(out);

        if let Some(t0) = t0 {
            let ns = cardiotouch_obs::registry()
                .clock()
                .now_ns()
                .saturating_sub(t0);
            self.hop_us.record(ns / 1_000);
        }
    }

    /// Pops every deferred warm restart falling inside the next hop.
    ///
    /// A Lost→Recovering transition inside (or before) this hop
    /// triggers the warm restart now, at the hop boundary — the restart
    /// point is a pure function of the absolute transition sample,
    /// never of caller chunking.
    fn take_restart(&mut self) -> bool {
        let mut restart = false;
        while let Some(&t) = self.restarts.front() {
            if t < self.processed + self.hop {
                self.restarts.pop_front();
                restart = true;
            } else {
                break;
            }
        }
        restart
    }

    /// The hop's back half, consuming the conditioned `self.hp_buf`:
    /// delineation, R refinement, buffer pruning, beat qualification.
    fn finish_hop(&mut self, out: &mut Vec<QualifiedBeat>) {
        let hop = self.hop;
        let head = self.processed;
        self.delineator.push_samples(&self.hp_buf);

        // Refine and commit every raw R that now has full context.
        while let Some(&r) = self.raw_rs.front() {
            if head <= r + self.ctx {
                break;
            }
            self.raw_rs.pop_front();
            let refined = self.refine_r(r);
            if self.last_refined_r.map_or(true, |p| refined > p) {
                let _ = self.delineator.push_r(refined);
                self.last_refined_r = Some(refined);
            }
        }
        // Keep 3 s of raw ECG (apexes confirm within 0.3 s, refinement
        // reaches 0.4 s back), but never discard a pending apex context.
        let mut keep = head.saturating_sub(3 * hop);
        if let Some(&r) = self.raw_rs.front() {
            keep = keep.min(r.saturating_sub(self.ctx));
        }
        self.ecg_ring.discard_before(keep);

        // Prune the state log: anything older than the delineator's
        // reach is dead (keep one entry as the governing state).
        let cutoff = head.saturating_sub(30 * hop);
        while self.state_log.len() >= 2 && self.state_log[1].0 <= cutoff {
            self.state_log.pop_front();
        }

        // Finalize beats whose segments are fully settled.
        self.beats_scratch.clear();
        self.delineator.poll_into(&mut self.beats_scratch);
        if self.beats_scratch.is_empty() {
            return;
        }
        let z0 = self.z_sum / head as f64;
        let mut suppressed: u64 = 0;
        let mut degraded: u64 = 0;
        for ob in &self.beats_scratch {
            let worst = worst_state(&self.state_log, ob.window.r, ob.window.end);
            // The ladder's emission gate: nothing from a lost stretch or
            // the post-loss re-lock window reaches the caller.
            if ob.window.r < self.suppress_before || worst == SignalState::Lost {
                suppressed += 1;
                continue;
            }
            if let Some(rep) =
                report_from_points(&self.config, &ob.window, &ob.points, ob.dzdt_max, z0)
            {
                if rep.pep_s.is_finite()
                    && rep.lvet_s.is_finite()
                    && rep.dzdt_max.is_finite()
                    && rep.sv_kubicek_ml.is_finite()
                {
                    let threshold = self
                        .config
                        .sqi_threshold
                        .unwrap_or(cardiotouch_icg::quality::DEFAULT_SQI_THRESHOLD);
                    let qb = QualifiedBeat {
                        report: rep,
                        state: worst,
                        sqi: ob.sqi,
                    };
                    if !qb.is_clean(threshold) {
                        degraded += 1;
                    }
                    out.push(qb);
                }
            }
        }
        if suppressed > 0 {
            self.beats_suppressed.add(suppressed);
        }
        if degraded > 0 {
            self.beats_degraded.add(degraded);
        }
    }

    /// Captures the complete mutable state of the stream — every filter
    /// delay line, ring buffer, adaptive threshold, ladder counter and
    /// holdover flag — as plain data ([`BeatStreamSnapshot`]).
    ///
    /// Scratch buffers (`ZeroPhaseScratch`, the per-hop work vectors)
    /// are pure workspace and never captured; coefficient sets are
    /// shared `Arc`s re-derived from the design cache by
    /// [`BeatStream::restore`]. A snapshot taken between two `push`
    /// calls and restored into a fresh stream resumes **bitwise
    /// identically** — the conformance migration leg pins this across
    /// the whole golden corpus.
    #[must_use]
    pub fn snapshot(&self) -> BeatStreamSnapshot {
        BeatStreamSnapshot {
            fs: self.config.fs,
            pend_ecg: self.pend_ecg.clone(),
            pend_z: self.pend_z.clone(),
            pushed: self.pushed,
            processed: self.processed,
            last_ecg: self.last_ecg,
            last_z: self.last_z,
            z_seen_finite: self.z_seen_finite,
            z_sum: self.z_sum,
            qrs: self.qrs.snapshot(),
            ecg_ring: self.ecg_ring.snapshot(),
            raw_rs: self.raw_rs.iter().copied().collect(),
            last_refined_r: self.last_refined_r,
            deriv: self.deriv.snapshot(),
            lp: self.lp.snapshot(),
            hp: self.hp.snapshot(),
            delineator: self.delineator.snapshot(),
            ecg_in_holdover: self.ecg_in_holdover,
            z_in_holdover: self.z_in_holdover,
            ecg_mon: self.ecg_mon.snapshot(),
            z_mon: self.z_mon.snapshot(),
            z_ema: self.z_ema,
            z_ema_init: self.z_ema_init,
            state_log: self.state_log.iter().copied().collect(),
            restarts: self.restarts.iter().copied().collect(),
            suppress_before: self.suppress_before,
        }
    }

    /// Reconstructs a stream from a snapshot: designs a fresh engine
    /// for `config` (re-deriving every coefficient set from the design
    /// cache) and overwrites its mutable state, resuming the session
    /// bitwise-identically to one that never paused.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] when the snapshot was taken at
    ///   a different sampling rate than `config.fs`;
    /// * shape-mismatch errors from the kernel restores (a corrupted
    ///   snapshot);
    /// * construction errors from [`BeatStream::new`].
    pub fn restore(config: PipelineConfig, snap: &BeatStreamSnapshot) -> Result<Self, CoreError> {
        if snap.fs.to_bits() != config.fs.to_bits() {
            return Err(CoreError::InvalidParameter {
                name: "snapshot.fs",
                value: snap.fs,
                constraint: "must equal the restoring configuration's fs",
            });
        }
        let mut s = Self::new(config)?;
        s.pend_ecg.extend_from_slice(&snap.pend_ecg);
        s.pend_z.extend_from_slice(&snap.pend_z);
        s.pushed = snap.pushed;
        s.processed = snap.processed;
        s.last_ecg = snap.last_ecg;
        s.last_z = snap.last_z;
        s.z_seen_finite = snap.z_seen_finite;
        s.z_sum = snap.z_sum;
        s.qrs.restore(&snap.qrs).map_err(CoreError::Ecg)?;
        s.ecg_ring.restore(&snap.ecg_ring);
        s.raw_rs.extend(snap.raw_rs.iter().copied());
        s.last_refined_r = snap.last_refined_r;
        s.deriv.restore(&snap.deriv);
        s.lp.restore(&snap.lp).map_err(CoreError::Dsp)?;
        s.hp.restore(&snap.hp).map_err(CoreError::Dsp)?;
        s.delineator
            .restore(&snap.delineator)
            .map_err(CoreError::Icg)?;
        s.ecg_in_holdover = snap.ecg_in_holdover;
        s.z_in_holdover = snap.z_in_holdover;
        s.ecg_mon.restore(&snap.ecg_mon);
        s.z_mon.restore(&snap.z_mon);
        s.z_ema = snap.z_ema;
        s.z_ema_init = snap.z_ema_init;
        s.state_log.extend(snap.state_log.iter().copied());
        s.restarts.extend(snap.restarts.iter().copied());
        s.suppress_before = snap.suppress_before;
        Ok(s)
    }

    /// Re-localises a raw online apex against a local zero-phase FIR
    /// rendering of the surrounding raw ECG — the streaming stand-in for
    /// the batch path's apex on the globally conditioned record. The
    /// local window is wide enough (±0.4 s around a ±0.04 s search) that
    /// the filtered interior is edge-effect free, so the argmax agrees
    /// with the batch apex wherever the slow baseline is locally smooth.
    fn refine_r(&mut self, r: usize) -> usize {
        let lo = r.saturating_sub(self.ctx).max(self.ecg_ring.base());
        let hi = (r + self.ctx + 1).min(self.ecg_ring.end());
        if hi <= lo + 2 {
            return r;
        }
        let seg = self.ecg_ring.slice(lo, hi);
        if filtfilt_fir_into(&self.ecg_fir, seg, &mut self.zp, &mut self.refine_buf).is_err() {
            return r;
        }
        let s_lo = r.saturating_sub(self.search).max(lo);
        let s_hi = (r + self.search + 1).min(hi);
        let mut best = (r, f64::MIN);
        for i in s_lo..s_hi {
            let v = self.refine_buf[i - lo];
            if v > best.1 {
                best = (i, v);
            }
        }
        best.0
    }
}

/// The original windowed streaming engine: re-runs the whole block
/// pipeline over a sliding window (default 20 s) on every 1 s hop.
///
/// Kept as the equivalence oracle and the benchmark baseline for
/// [`BeatStream`]; its per-hop cost grows with the window length where
/// the incremental engine's does not. Buffer trims use
/// [`HistoryRing`]'s amortized compaction instead of the original
/// per-push `Vec::drain`, so even this engine no longer pays O(window)
/// per push (nor a pathological cost when one chunk exceeds the
/// window).
#[derive(Debug, Clone)]
pub struct ReanalysisBeatStream {
    pipeline: Pipeline,
    ecg: HistoryRing,
    z: HistoryRing,
    /// Samples accumulated since the last analysis run.
    pending: usize,
    /// Absolute R index of the last emitted beat.
    last_emitted_r: Option<usize>,
    window_samples: usize,
    hop_samples: usize,
}

impl ReanalysisBeatStream {
    /// Creates a stream with the default 20 s window and 1 s re-analysis
    /// hop.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(config: PipelineConfig) -> Result<Self, CoreError> {
        Self::with_window(config, 20.0)
    }

    /// Creates a stream with an explicit sliding-window length. The
    /// re-analysis hop stays 1 s; a longer window buys more per-window
    /// context at proportionally more re-filtering per hop — which is
    /// exactly the cost curve the benchmarks contrast with the
    /// incremental engine's window-free O(hop).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors; rejects windows
    /// shorter than 5 s (the pipeline needs several beats per window).
    pub fn with_window(config: PipelineConfig, window_s: f64) -> Result<Self, CoreError> {
        let fs = config.fs;
        let pipeline = Pipeline::new(config)?;
        if !(window_s.is_finite() && window_s >= 5.0) {
            return Err(CoreError::InvalidParameter {
                name: "window_s",
                value: window_s,
                constraint: "must be at least 5 s",
            });
        }
        Ok(Self {
            pipeline,
            ecg: HistoryRing::new(),
            z: HistoryRing::new(),
            pending: 0,
            last_emitted_r: None,
            window_samples: (window_s * fs) as usize,
            hop_samples: fs as usize,
        })
    }

    /// Absolute index of the next sample to be pushed.
    #[must_use]
    pub fn position(&self) -> usize {
        self.ecg.end()
    }

    /// Pushes one chunk of simultaneous samples and returns the beats that
    /// completed since the previous call, in chronological order, with
    /// indices in **absolute** (whole-session) coordinates.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] when the chunks differ in
    ///   length;
    /// * wrapped stage errors from the underlying pipeline (not-enough-
    ///   beats conditions are treated as "nothing yet", not an error).
    pub fn push(&mut self, ecg: &[f64], z: &[f64]) -> Result<Vec<BeatReport>, CoreError> {
        if ecg.len() != z.len() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: ecg.len(),
                z_len: z.len(),
            });
        }
        self.ecg.extend(ecg);
        self.z.extend(z);
        self.pending += ecg.len();

        // Trim to the sliding window (amortized O(dropped)).
        if self.ecg.len() > self.window_samples {
            let keep_from = self.ecg.end() - self.window_samples;
            self.ecg.discard_before(keep_from);
            self.z.discard_before(keep_from);
        }

        if self.pending < self.hop_samples || self.ecg.len() < 4 * self.hop_samples {
            return Ok(Vec::new());
        }
        self.pending = 0;

        let analysis = match self
            .pipeline
            .analyze(self.ecg.as_slice(), self.z.as_slice())
        {
            Ok(a) => a,
            // A quiet or noisy window simply has nothing to emit yet.
            Err(CoreError::NotEnoughBeats { .. }) => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };

        let base = self.ecg.base();
        let fs = self.pipeline.config().fs;
        // Hold back beats whose X could still move when more context
        // arrives (within ~1 s of the window end).
        let settled_end = self.ecg.len().saturating_sub(fs as usize);
        let mut out = Vec::new();
        for b in analysis.beats() {
            let abs_r = base + b.r;
            if b.x >= settled_end {
                continue;
            }
            if self.last_emitted_r.map_or(true, |last| abs_r > last) {
                let mut report = *b;
                report.r = abs_r;
                report.b = base + b.b;
                report.c = base + b.c;
                report.x = base + b.x;
                out.push(report);
            }
        }
        if let Some(last) = out.last() {
            self.last_emitted_r = Some(last.r);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardiotouch_physio::path::Position;
    use cardiotouch_physio::scenario::{PairedRecording, Protocol};
    use cardiotouch_physio::subject::Population;

    fn recording(seed: u64) -> PairedRecording {
        let population = Population::reference_five();
        PairedRecording::generate(
            &population.subjects()[0],
            Position::One,
            50_000.0,
            &Protocol::paper_default(),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn streaming_emits_each_beat_once_in_order() {
        let rec = recording(1);
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        let mut all = Vec::new();
        for (e, z) in rec.device_ecg().chunks(125).zip(rec.device_z().chunks(125)) {
            all.extend(stream.push(e, z).unwrap());
        }
        assert!(all.len() > 20, "only {} beats emitted", all.len());
        for w in all.windows(2) {
            assert!(w[1].r > w[0].r, "duplicate or out-of-order emission");
        }
    }

    #[test]
    fn streaming_matches_batch_analysis() {
        let rec = recording(2);
        let cfg = PipelineConfig::paper_default(250.0);
        let batch = Pipeline::new(cfg)
            .unwrap()
            .analyze(rec.device_ecg(), rec.device_z())
            .unwrap();

        let mut stream = BeatStream::new(cfg).unwrap();
        let mut streamed = Vec::new();
        for (e, z) in rec.device_ecg().chunks(250).zip(rec.device_z().chunks(250)) {
            streamed.extend(stream.push(e, z).unwrap());
        }
        // Every streamed beat should match a batch beat at (nearly) the
        // same R with similar intervals. Edge beats may differ.
        let mut matched = 0;
        let mut agree = 0;
        for s in &streamed {
            if let Some(b) = batch.beats().iter().find(|b| b.r.abs_diff(s.r) <= 2) {
                matched += 1;
                // Borderline beats may resolve X differently with
                // different window context; the bulk must agree.
                if (b.lvet_s - s.lvet_s).abs() < 0.045 {
                    agree += 1;
                }
            }
        }
        assert!(
            matched as f64 >= 0.9 * streamed.len() as f64,
            "{matched}/{} streamed beats matched batch",
            streamed.len()
        );
        assert!(
            agree as f64 >= 0.85 * matched as f64,
            "only {agree}/{matched} matched beats agree on LVET"
        );
        assert!(streamed.len() as f64 >= 0.75 * batch.beats().len() as f64);
    }

    #[test]
    fn chunk_size_does_not_change_emissions() {
        let rec = recording(3);
        let run = |chunk: usize| -> Vec<usize> {
            let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
            let mut rs = Vec::new();
            for (e, z) in rec
                .device_ecg()
                .chunks(chunk)
                .zip(rec.device_z().chunks(chunk))
            {
                rs.extend(stream.push(e, z).unwrap().into_iter().map(|b| b.r));
            }
            rs
        };
        let small = run(50);
        let large = run(500);
        // identical beat sets up to the tail (the last partial hop)
        let common = small.len().min(large.len());
        assert!(common > 15);
        assert_eq!(
            &small[..common.min(small.len())],
            &large[..common.min(large.len())]
        );
    }

    #[test]
    fn mismatched_chunks_rejected() {
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        assert!(stream.push(&[0.0; 10], &[0.0; 9]).is_err());
    }

    #[test]
    fn position_tracks_pushed_samples() {
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        stream.push(&[0.0; 100], &[500.0; 100]).unwrap();
        assert_eq!(stream.position(), 100);
        // push enough to exceed any internal buffer and force trimming
        for _ in 0..60 {
            stream.push(&[0.0; 125], &[500.0; 125]).unwrap();
        }
        assert_eq!(stream.position(), 100 + 60 * 125);
    }

    #[test]
    fn reanalysis_stream_emits_each_beat_once_in_order() {
        let rec = recording(1);
        let mut stream = ReanalysisBeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        let mut all = Vec::new();
        for (e, z) in rec.device_ecg().chunks(125).zip(rec.device_z().chunks(125)) {
            all.extend(stream.push(e, z).unwrap());
        }
        assert!(all.len() > 20, "only {} beats emitted", all.len());
        for w in all.windows(2) {
            assert!(w[1].r > w[0].r, "duplicate or out-of-order emission");
        }
    }

    #[test]
    fn engines_agree_on_the_bulk_of_beats() {
        let rec = recording(2);
        let cfg = PipelineConfig::paper_default(250.0);
        let run_inc = || {
            let mut s = BeatStream::new(cfg).unwrap();
            let mut v = Vec::new();
            for (e, z) in rec.device_ecg().chunks(250).zip(rec.device_z().chunks(250)) {
                v.extend(s.push(e, z).unwrap());
            }
            v
        };
        let run_re = || {
            let mut s = ReanalysisBeatStream::new(cfg).unwrap();
            let mut v = Vec::new();
            for (e, z) in rec.device_ecg().chunks(250).zip(rec.device_z().chunks(250)) {
                v.extend(s.push(e, z).unwrap());
            }
            v
        };
        let inc = run_inc();
        let re = run_re();
        let matched = inc
            .iter()
            .filter(|s| re.iter().any(|b| b.r.abs_diff(s.r) <= 2))
            .count();
        assert!(
            matched as f64 >= 0.85 * inc.len() as f64,
            "{matched}/{} incremental beats matched the windowed engine",
            inc.len()
        );
    }

    #[test]
    fn reanalysis_position_survives_oversized_chunks() {
        let rec = recording(4);
        let mut stream = ReanalysisBeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        // one chunk larger than the whole 20 s window
        let n = 6000;
        let beats = stream
            .push(&rec.device_ecg()[..n], &rec.device_z()[..n])
            .unwrap();
        assert_eq!(stream.position(), n);
        assert!(!beats.is_empty());
    }

    #[test]
    fn ladder_declares_lost_then_recovers_and_resumes_beats() {
        let rec = recording(6);
        let fs = 250.0;
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // 3 s of full contact loss (dropout on both channels) at 10 s.
        let (lo, hi) = ((10.0 * fs) as usize, (13.0 * fs) as usize);
        for i in lo..hi {
            ecg[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        let cfg = PipelineConfig::paper_default(fs);
        let mut stream = BeatStream::new(cfg).unwrap();
        let mut all = Vec::new();
        let mut lost_seen_at = None;
        for (k, (e, zc)) in ecg.chunks(125).zip(z.chunks(125)).enumerate() {
            all.extend(stream.push_qualified(e, zc).unwrap());
            let (es, zs) = stream.channel_states();
            let pos = (k + 1) * 125;
            if pos > lo + (cfg.holdover_cap_s * fs) as usize + 125 && pos < hi {
                assert_eq!(es, SignalState::Lost, "ecg must be lost at {pos}");
                assert_eq!(zs, SignalState::Lost, "z must be lost at {pos}");
                lost_seen_at.get_or_insert(pos);
            }
        }
        // Lost was entered within the holdover cap of the onset.
        assert!(lost_seen_at.is_some(), "never observed Lost during the gap");
        // Contact returned 17 s before the end: both channels re-locked.
        let (es, zs) = stream.channel_states();
        assert_eq!(es, SignalState::Good);
        assert_eq!(zs, SignalState::Good);
        // Beats resumed after restoration, none spanning the gap, and no
        // non-finite parameter anywhere.
        let after = all.iter().filter(|q| q.report.r > hi).count();
        assert!(after >= 5, "only {after} beats after contact returned");
        for q in &all {
            assert!(
                q.report.r >= hi || q.report.x < lo,
                "beat [{}, {}] overlaps the loss window",
                q.report.r,
                q.report.x
            );
            assert!(q.state != SignalState::Lost);
            assert!(q.report.pep_s.is_finite() && q.report.lvet_s.is_finite());
            assert!(q.report.sv_kubicek_ml.is_finite() && q.report.co_l_per_min.is_finite());
        }
    }

    #[test]
    fn push_qualified_on_clean_input_is_all_good_and_matches_push() {
        let rec = recording(7);
        let cfg = PipelineConfig::paper_default(250.0);
        let mut qual_stream = BeatStream::new(cfg).unwrap();
        let mut plain_stream = BeatStream::new(cfg).unwrap();
        let mut qual = Vec::new();
        let mut plain = Vec::new();
        for (e, z) in rec.device_ecg().chunks(125).zip(rec.device_z().chunks(125)) {
            qual.extend(qual_stream.push_qualified(e, z).unwrap());
            plain.extend(plain_stream.push(e, z).unwrap());
        }
        assert_eq!(qual.len(), plain.len());
        for (q, p) in qual.iter().zip(&plain) {
            assert_eq!(q.state, SignalState::Good);
            assert_eq!(q.report, *p, "clean-path reports must be bit-identical");
        }
        // SQI wiring: once the template warms, beats carry a confidence.
        let scored = qual.iter().filter(|q| q.sqi.is_some()).count();
        assert!(
            scored >= qual.len().saturating_sub(4),
            "{scored}/{}",
            qual.len()
        );
    }

    #[test]
    fn flatline_contact_loss_is_detected_without_nonfinite_samples() {
        let rec = recording(8);
        let fs = 250.0;
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // Finger lift modeled as a hard rail: perfectly flat, finite.
        let (lo, hi) = ((12.0 * fs) as usize, (15.0 * fs) as usize);
        for i in lo..hi {
            ecg[i] = 0.0;
            z[i] = 430.0;
        }
        let mut stream = BeatStream::new(PipelineConfig::paper_default(fs)).unwrap();
        let mut saw_lost = false;
        for (e, zc) in ecg.chunks(250).zip(z.chunks(250)) {
            stream.push_qualified(e, zc).unwrap();
            let (es, zs) = stream.channel_states();
            saw_lost |= es == SignalState::Lost && zs == SignalState::Lost;
        }
        assert!(saw_lost, "flatline must trip the ladder without any NaN");
        let (es, zs) = stream.channel_states();
        assert_eq!((es, zs), (SignalState::Good, SignalState::Good));
    }

    #[test]
    fn worst_state_queries_the_transition_log() {
        let mut log = VecDeque::new();
        assert_eq!(worst_state(&log, 0, 100), SignalState::Good);
        log.push_back((50, SignalState::Degraded.severity()));
        log.push_back((80, SignalState::Lost.severity()));
        log.push_back((120, SignalState::Good.severity()));
        assert_eq!(worst_state(&log, 0, 40), SignalState::Good);
        assert_eq!(worst_state(&log, 0, 60), SignalState::Degraded);
        assert_eq!(worst_state(&log, 60, 90), SignalState::Lost);
        assert_eq!(worst_state(&log, 130, 200), SignalState::Good);
        assert_eq!(worst_state(&log, 90, 130), SignalState::Lost);
    }

    #[test]
    fn snapshot_restore_resumes_bitwise_including_faults() {
        let rec = recording(9);
        let fs = 250.0;
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // A contact loss mid-record so ladder/restart/suppression state
        // is live at the migration point.
        let (lo, hi) = ((9.0 * fs) as usize, (12.0 * fs) as usize);
        for i in lo..hi {
            ecg[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        let cfg = PipelineConfig::paper_default(fs);
        let qkey = |q: &QualifiedBeat| {
            (
                q.report.r,
                q.report.pep_s.to_bits(),
                q.report.lvet_s.to_bits(),
                q.report.sv_kubicek_ml.to_bits(),
                q.report.co_l_per_min.to_bits(),
                q.state,
                q.sqi.map(f64::to_bits),
            )
        };

        let mut reference = BeatStream::new(cfg).unwrap();
        let mut ref_out = Vec::new();
        for (e, zc) in ecg.chunks(125).zip(z.chunks(125)) {
            ref_out.extend(reference.push_qualified(e, zc).unwrap());
        }
        assert!(ref_out.len() > 10);

        // Migrate at an uneven chunk boundary inside the fault window —
        // through the full byte codec, as the fleet's live path does.
        let split = 125 * 20; // 10 s in, mid-loss
        let mut first = BeatStream::new(cfg).unwrap();
        let mut out = Vec::new();
        for (e, zc) in ecg[..split].chunks(125).zip(z[..split].chunks(125)) {
            out.extend(first.push_qualified(e, zc).unwrap());
        }
        let bytes = first.snapshot().to_bytes();
        let snap = crate::snapshot::BeatStreamSnapshot::from_bytes(&bytes).unwrap();
        let mut resumed = BeatStream::restore(cfg, &snap).unwrap();
        assert_eq!(resumed.position(), split);
        assert_eq!(resumed.channel_states(), first.channel_states());
        for (e, zc) in ecg[split..].chunks(125).zip(z[split..].chunks(125)) {
            out.extend(resumed.push_qualified(e, zc).unwrap());
        }
        assert_eq!(out.len(), ref_out.len());
        for (a, b) in out.iter().zip(&ref_out) {
            assert_eq!(qkey(a), qkey(b));
        }
    }

    #[test]
    fn restore_rejects_mismatched_fs() {
        let snap = BeatStream::new(PipelineConfig::paper_default(250.0))
            .unwrap()
            .snapshot();
        assert!(BeatStream::restore(PipelineConfig::paper_default(500.0), &snap).is_err());
    }

    #[test]
    fn nan_and_saturated_samples_do_not_panic_or_emit_garbage() {
        let rec = recording(5);
        let mut ecg = rec.device_ecg().to_vec();
        let mut z = rec.device_z().to_vec();
        // a NaN burst, an infinite spike and a saturated plateau
        for i in 2000..2050 {
            ecg[i] = f64::NAN;
            z[i] = f64::NAN;
        }
        ecg[3000] = f64::INFINITY;
        z[3100] = f64::NEG_INFINITY;
        for i in 4000..4100 {
            ecg[i] = 1.0e6;
            z[i] = 1.0e6;
        }
        let mut stream = BeatStream::new(PipelineConfig::paper_default(250.0)).unwrap();
        let mut all = Vec::new();
        for (e, zc) in ecg.chunks(125).zip(z.chunks(125)) {
            all.extend(stream.push(e, zc).unwrap());
        }
        // the stream must keep running and still find clean-region beats
        assert!(all.len() > 5, "only {} beats after glitches", all.len());
        for b in &all {
            assert!(b.pep_s.is_finite() && b.lvet_s.is_finite());
            assert!(b.dzdt_max.is_finite());
            assert!(b.sv_kubicek_ml.is_finite() && b.co_l_per_min.is_finite());
            assert!(b.r < b.b && b.b < b.c && b.c < b.x);
        }
    }
}
