//! Stateful streaming filter kernels: O(new samples) per chunk.
//!
//! The batch kernels in [`crate::fir`], [`crate::iir`] and
//! [`crate::zero_phase`] process whole records — right for the paper's
//! retrospective evaluation, wrong for the firmware path (Fig 3), which
//! sees one ADC chunk at a time and must never re-touch old samples. This
//! module provides the incremental counterparts:
//!
//! * [`StatefulBiquad`] / [`StreamingCascade`] — causal IIR sections with
//!   persistent direct-form-II-transposed state; a chunk costs
//!   `O(len × sections)` regardless of how much signal came before;
//! * [`StreamingFir`] — causal FIR convolution against a ring-buffer
//!   delay line of the last `order` inputs;
//! * [`StreamingDerivative`] — the central-difference kernel of
//!   [`crate::diff::derivative`] with one sample of latency;
//! * [`StreamingZeroPhase`] — an incremental emulation of
//!   [`crate::zero_phase::filtfilt_iir`]: the forward pass streams with
//!   persistent state, and the anti-causal backward pass runs once per
//!   pushed chunk over the samples that settle, emitting them once
//!   enough right-context has accumulated for the backward transient to
//!   die out. Its state at the settle boundary is primed in closed form
//!   from a shared state-response table ([`BackwardPriming`]) instead of
//!   re-filtering the reflection and the unsettled tail.
//!
//! All kernels share coefficient sets behind [`std::sync::Arc`] (obtained
//! from [`crate::design_cache`]), so a thousand concurrent sessions hold
//! a thousand small state blocks but one coefficient allocation.
//!
//! Causal kernels are **bitwise-identical** to their batch counterparts
//! and chunk-size invariant (pinned by the tests below). The zero-phase
//! emulation is not: each `push_chunk` is one processing quantum costing
//! `O(chunk)` serial steps plus an `O(settle + ext)` dot product, and
//! its output is a pure function of the chunk sequence. Callers
//! quantize — the incremental engine (`core::stream::BeatStream`)
//! pushes exactly one hop per call, which is where chunk-size
//! invariance is proven. The output converges to the batch `filtfilt`
//! interior at a rate set by the settle delay.
//!
//! # State snapshots
//!
//! Every kernel exposes a `snapshot()`/`restore()` pair over a plain-data
//! `*State` struct carrying exactly its mutable state — delay lines,
//! ring positions, unsettled tails — and **never** its coefficients,
//! which are shared behind `Arc` and re-derived from
//! [`crate::design_cache`] on the restoring side. Restoring a snapshot
//! into a freshly designed kernel of the same shape resumes the stream
//! bitwise-identically to one that never paused; a shape mismatch
//! (different section count or tap count) is rejected with
//! [`crate::DspError::LengthMismatch`]. This is the substrate for
//! session migration and crash recovery in the serving layer.

use std::sync::Arc;

use crate::error::DspError;
use crate::iir::{Biquad, Butterworth};

/// One causal biquad section with persistent state (direct form II
/// transposed) — the streaming twin of [`Biquad::filter_in_place`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatefulBiquad {
    coefficients: Biquad,
    s1: f64,
    s2: f64,
}

impl StatefulBiquad {
    /// Wraps a coefficient set with zeroed state.
    #[must_use]
    pub fn new(coefficients: Biquad) -> Self {
        Self {
            coefficients,
            s1: 0.0,
            s2: 0.0,
        }
    }

    /// Filters one sample, advancing the internal state.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let c = &self.coefficients;
        let y = c.b0 * x + self.s1;
        self.s1 = c.b1 * x - c.a1 * y + self.s2;
        self.s2 = c.b2 * x - c.a2 * y;
        y
    }

    /// Resets the state to zero (coefficients are kept).
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
    }

    /// Captures the mutable filter state (coefficients excluded).
    #[must_use]
    pub fn snapshot(&self) -> BiquadState {
        BiquadState {
            s1: self.s1,
            s2: self.s2,
        }
    }

    /// Overwrites the filter state from a snapshot.
    pub fn restore(&mut self, state: &BiquadState) {
        self.s1 = state.s1;
        self.s2 = state.s2;
    }
}

/// Mutable state of a [`StatefulBiquad`]: the two direct-form-II-
/// transposed delay registers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BiquadState {
    /// First delay register.
    pub s1: f64,
    /// Second delay register.
    pub s2: f64,
}

/// A causal Butterworth cascade with persistent per-section state — the
/// streaming twin of [`Butterworth::filter_in_place`]. Coefficients stay
/// behind the shared [`Arc`]; only the `2 × sections` state floats are
/// per-instance.
#[derive(Debug, Clone)]
pub struct StreamingCascade {
    filter: Arc<Butterworth>,
    /// `(s1, s2)` per section.
    state: Vec<(f64, f64)>,
}

impl StreamingCascade {
    /// Creates a cascade with zeroed state over shared coefficients.
    #[must_use]
    pub fn new(filter: Arc<Butterworth>) -> Self {
        let state = vec![(0.0, 0.0); filter.sections().len()];
        Self { filter, state }
    }

    /// The underlying design.
    #[must_use]
    pub fn filter(&self) -> &Arc<Butterworth> {
        &self.filter
    }

    /// Filters one sample through every section.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let mut v = x;
        for (section, (s1, s2)) in self.filter.sections().iter().zip(self.state.iter_mut()) {
            let y = section.b0 * v + *s1;
            *s1 = section.b1 * v - section.a1 * y + *s2;
            *s2 = section.b2 * v - section.a2 * y;
            v = y;
        }
        v
    }

    /// Filters a chunk in place; each output sample is identical to what
    /// per-sample [`StreamingCascade::push`] calls would produce.
    pub fn process_in_place(&mut self, chunk: &mut [f64]) {
        for v in chunk.iter_mut() {
            *v = self.push(*v);
        }
    }

    /// Filters `chunk` into `out` (cleared first), reusing its capacity.
    pub fn process_chunk(&mut self, chunk: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(chunk.len());
        for &x in chunk {
            out.push(self.push(x));
        }
    }

    /// Resets every section's state to zero.
    pub fn reset(&mut self) {
        for s in &mut self.state {
            *s = (0.0, 0.0);
        }
    }

    /// Captures the per-section delay registers (coefficients excluded).
    #[must_use]
    pub fn snapshot(&self) -> CascadeState {
        CascadeState {
            sections: self.state.clone(),
        }
    }

    /// Overwrites the per-section state from a snapshot.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the snapshot was taken from a
    /// cascade with a different section count.
    pub fn restore(&mut self, state: &CascadeState) -> Result<(), DspError> {
        if state.sections.len() != self.state.len() {
            return Err(DspError::LengthMismatch {
                left: state.sections.len(),
                right: self.state.len(),
            });
        }
        self.state.copy_from_slice(&state.sections);
        Ok(())
    }
}

/// Mutable state of a [`StreamingCascade`]: `(s1, s2)` per section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CascadeState {
    /// Delay registers, one pair per biquad section.
    pub sections: Vec<(f64, f64)>,
}

/// Causal streaming FIR: a ring-buffer delay line of the last `order`
/// inputs convolved against shared taps. Output sample `n` equals the
/// batch [`crate::fir::Fir::filter`] output at `n` exactly (both treat
/// the pre-stream past as zero).
#[derive(Debug, Clone)]
pub struct StreamingFir {
    filter: Arc<crate::fir::Fir>,
    /// Ring of the last `taps.len()` inputs; `pos` is the slot the *next*
    /// sample will occupy.
    ring: Vec<f64>,
    pos: usize,
}

impl StreamingFir {
    /// Creates a streaming FIR with a zeroed delay line over shared taps.
    #[must_use]
    pub fn new(filter: Arc<crate::fir::Fir>) -> Self {
        let ring = vec![0.0; filter.taps().len()];
        Self {
            filter,
            ring,
            pos: 0,
        }
    }

    /// The underlying design.
    #[must_use]
    pub fn filter(&self) -> &Arc<crate::fir::Fir> {
        &self.filter
    }

    /// Pushes one sample and returns the filter output at that sample.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let len = self.ring.len();
        self.ring[self.pos] = x;
        let taps = self.filter.taps();
        let mut acc = 0.0;
        // taps[k] pairs with the input k samples ago: ring[pos - k].
        let mut idx = self.pos;
        for &t in taps {
            acc += t * self.ring[idx];
            idx = if idx == 0 { len - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % len;
        acc
    }

    /// Filters `chunk` into `out` (cleared first), reusing its capacity.
    pub fn process_chunk(&mut self, chunk: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(chunk.len());
        for &x in chunk {
            out.push(self.push(x));
        }
    }

    /// Zeroes the delay line.
    pub fn reset(&mut self) {
        self.ring.fill(0.0);
        self.pos = 0;
    }

    /// Captures the delay line and ring position (taps excluded).
    #[must_use]
    pub fn snapshot(&self) -> FirState {
        FirState {
            ring: self.ring.clone(),
            pos: self.pos,
        }
    }

    /// Overwrites the delay line from a snapshot.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the snapshot was taken from a
    /// FIR of a different order (ring length differs) or the stored
    /// position exceeds the ring.
    pub fn restore(&mut self, state: &FirState) -> Result<(), DspError> {
        if state.ring.len() != self.ring.len() || state.pos >= self.ring.len() {
            return Err(DspError::LengthMismatch {
                left: state.ring.len(),
                right: self.ring.len(),
            });
        }
        self.ring.copy_from_slice(&state.ring);
        self.pos = state.pos;
        Ok(())
    }
}

/// Mutable state of a [`StreamingFir`]: the input delay line and the
/// slot the next sample will occupy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FirState {
    /// Ring of the last `taps.len()` inputs.
    pub ring: Vec<f64>,
    /// Slot the next input sample will occupy.
    pub pos: usize,
}

/// Streaming central-difference first derivative, matching
/// [`crate::diff::derivative`] sample for sample with one sample of
/// latency: pushing `x[n]` yields `y[n−1]`. The very first output uses
/// the forward difference, exactly as the batch kernel's left edge does;
/// the batch kernel's final backward-difference sample is never emitted
/// (a stream has no last sample).
#[derive(Debug, Clone, Copy)]
pub struct StreamingDerivative {
    fs: f64,
    prev: f64,
    prev2: f64,
    seen: usize,
}

impl StreamingDerivative {
    /// Creates the kernel for sampling rate `fs`.
    #[must_use]
    pub fn new(fs: f64) -> Self {
        Self {
            fs,
            prev: 0.0,
            prev2: 0.0,
            seen: 0,
        }
    }

    /// Pushes `x[n]` and returns `y[n−1]` once two samples have been seen.
    #[inline]
    pub fn push(&mut self, x: f64) -> Option<f64> {
        self.seen += 1;
        let out = match self.seen {
            1 => None,
            2 => Some((x - self.prev) * self.fs),
            _ => Some((x - self.prev2) * self.fs / 2.0),
        };
        self.prev2 = self.prev;
        self.prev = x;
        out
    }

    /// Resets to the start-of-stream state.
    pub fn reset(&mut self) {
        self.prev = 0.0;
        self.prev2 = 0.0;
        self.seen = 0;
    }

    /// Captures the two-sample history and stream position.
    #[must_use]
    pub fn snapshot(&self) -> DerivativeState {
        DerivativeState {
            prev: self.prev,
            prev2: self.prev2,
            seen: self.seen,
        }
    }

    /// Overwrites the history from a snapshot (`fs` is kept).
    pub fn restore(&mut self, state: &DerivativeState) {
        self.prev = state.prev;
        self.prev2 = state.prev2;
        self.seen = state.seen;
    }
}

/// Mutable state of a [`StreamingDerivative`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DerivativeState {
    /// The most recent input sample.
    pub prev: f64,
    /// The input sample before `prev`.
    pub prev2: f64,
    /// Total samples pushed so far.
    pub seen: usize,
}

/// The closed-form start of a [`StreamingZeroPhase`] backward pass: the
/// cascade's state-response table for one `(design, settle, ext)`.
///
/// The backward cascade starts from zero and is linear and
/// time-invariant, so its state after the priming run (the reflection,
/// then the `settle` newest samples, newest first) is a weighted sum of
/// those inputs. With `x_d = tail[len−1−d]` and `E = min(ext, len − 1)`:
///
/// `s = Σ_{d<settle} g[settle−1−d]·x_d + Σ_{1≤d≤E} g[settle−1+d]·x_d`,
///
/// where `g[k]` is the cascade state after a unit impulse followed by
/// `k` zeros. The table evaluates that sum as dot products of
/// independent multiply-adds instead of `settle + E` serial biquad
/// steps. One table serves every `E ≤ ext`, so short tails need no
/// other path.
///
/// The table holds `(settle + ext) × 2·sections` floats and is shared
/// process-wide: [`StreamingZeroPhase::new`] takes it from
/// [`crate::design_cache`], keyed by the design's coefficients.
#[derive(Debug)]
pub struct BackwardPriming {
    settle: usize,
    ext: usize,
    /// Per state component (`s1`, `s2` of each section, in cascade
    /// order), `settle` weights for `tail[settled..]`, oldest first:
    /// `g[0..settle]`.
    newer: Vec<f64>,
    /// Per state component, `ext` weights for the reflection in tail
    /// order: `g[settle+ext−1]` down to `g[settle]`, so the `E`
    /// reflected samples `tail[len−1−E..len−1]` pair with the last `E`.
    reflection: Vec<f64>,
}

impl BackwardPriming {
    /// Builds the table by running a unit impulse through a zeroed
    /// cascade of `filter` for `settle + ext` steps.
    pub(crate) fn new(filter: &Arc<Butterworth>, settle: usize, ext: usize) -> Self {
        let mut cascade = StreamingCascade::new(Arc::clone(filter));
        let components = 2 * cascade.state.len();
        let mut newer = vec![0.0; components * settle];
        let mut reflection = vec![0.0; components * ext];
        for k in 0..settle + ext {
            let _ = cascade.push(if k == 0 { 1.0 } else { 0.0 });
            let state = cascade.state.iter().flat_map(|&(s1, s2)| [s1, s2]);
            for (c, v) in state.enumerate() {
                if k < settle {
                    newer[c * settle + k] = v;
                } else {
                    reflection[c * ext + (settle + ext - 1 - k)] = v;
                }
            }
        }
        Self {
            settle,
            ext,
            newer,
            reflection,
        }
    }

    /// Writes into `state` the backward cascade's state after the
    /// priming run over `tail`, whose oldest `len − settle` samples are
    /// the ones about to settle.
    fn load(&self, tail: &[f64], state: &mut [(f64, f64)]) {
        let len = tail.len();
        let e = self.ext.min(len - 1);
        let newer = &tail[len - self.settle..];
        let reflected = &tail[len - 1 - e..len - 1];
        let weighted = |c: usize| {
            let g = &self.newer[c * self.settle..(c + 1) * self.settle];
            let h = &self.reflection[c * self.ext..(c + 1) * self.ext];
            dot(g, newer) + dot(&h[self.ext - e..], reflected)
        };
        for (k, (s1, s2)) in state.iter_mut().enumerate() {
            *s1 = weighted(2 * k);
            *s2 = weighted(2 * k + 1);
        }
    }
}

/// `Σ a[i]·b[i]` over eight interleaved accumulators. Float addition is
/// not reassociated by the compiler, so one running sum would serialise
/// on the add latency; independent lanes run at multiply-add throughput.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    const LANES: usize = 8;
    let mut acc = [0.0; LANES];
    let (a_body, a_rest) = a.split_at(a.len() - a.len() % LANES);
    let (b_body, b_rest) = b.split_at(a_body.len());
    for (x, y) in a_body.chunks_exact(LANES).zip(b_body.chunks_exact(LANES)) {
        for k in 0..LANES {
            acc[k] += x[k] * y[k];
        }
    }
    let rest: f64 = a_rest.iter().zip(b_rest).map(|(x, y)| x * y).sum();
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + rest
}

/// Incremental zero-phase (forward–backward) IIR filtering with a bounded
/// settle delay.
///
/// The forward pass is strictly causal and streams with persistent state
/// — cost `O(chunk)`. The backward pass is anti-causal: the batch
/// [`crate::zero_phase::filtfilt_iir`] warms it with the entire future.
/// Here the backward pass is instead started once per
/// [`StreamingZeroPhase::push_chunk`] at the rolling head, as if it had
/// run over an even reflection there (the same edge-extension device the
/// batch path uses at the true record end) and then over the newest
/// `settle` samples. That priming is closed-form ([`BackwardPriming`]):
/// a dot product against a shared state-response table, not a re-run of
/// the recursion. A sample is *settled* — emitted, never revisited —
/// once `settle` newer samples exist, by which point the backward
/// transient has decayed by `exp(−settle / τ)` for a filter time
/// constant of `τ` samples.
///
/// Each call is one processing quantum: the output is a pure function of
/// the sequence of chunks pushed, not of the sample count alone, so
/// callers that need chunk-size invariance quantize their input (the
/// incremental engine pushes exactly one hop per call). A call costs
/// `O(chunk)` serial steps plus `O(settle + ext)` independent
/// multiply-adds, and the tail never holds more than `settle + chunk`
/// samples.
#[derive(Debug, Clone)]
pub struct StreamingZeroPhase {
    forward: StreamingCascade,
    backward: StreamingCascade,
    /// Shared closed-form start of the backward pass.
    priming: Arc<BackwardPriming>,
    /// Forward-pass outputs not yet settled.
    tail: Vec<f64>,
    /// Samples of right-context required before a sample settles.
    settle: usize,
    /// Edge-extension length priming the backward pass at the rolling
    /// head (and the forward pass at stream start).
    ext: usize,
    /// `true` once the stream-start forward priming has run.
    primed: bool,
}

impl StreamingZeroPhase {
    /// Creates the stage. `settle` is the right-context requirement in
    /// samples; `ext` the reflection length used to prime the forward
    /// pass at stream start and the backward pass at the rolling head
    /// (clamped to the available signal).
    #[must_use]
    pub fn new(filter: Arc<Butterworth>, settle: usize, ext: usize) -> Self {
        let settle = settle.max(1);
        Self {
            forward: StreamingCascade::new(Arc::clone(&filter)),
            priming: crate::design_cache::zero_phase_priming(&filter, settle, ext),
            backward: StreamingCascade::new(filter),
            tail: Vec::new(),
            settle,
            ext,
            primed: false,
        }
    }

    /// The settle delay in samples: the right-context requirement before
    /// a sample is emitted.
    #[must_use]
    pub fn settle_samples(&self) -> usize {
        self.settle
    }

    /// The shared state-response table that starts every backward pass.
    #[must_use]
    pub fn priming(&self) -> &Arc<BackwardPriming> {
        &self.priming
    }

    /// Returns the stage to its start-of-stream state: the forward
    /// cascade is zeroed, the unsettled tail is dropped, and the next
    /// non-empty chunk re-runs the stream-start forward priming. Used for
    /// warm-restarting a pipeline after signal loss — the discarded tail
    /// was conditioned from pre-loss signal and must not leak across the
    /// restart.
    pub fn reset(&mut self) {
        self.forward.reset();
        self.tail.clear();
        self.primed = false;
    }

    /// Pushes a chunk and appends every newly settled zero-phase output
    /// sample to `out`, in input order. The chunk is forward-filtered
    /// into the tail, then one backward pass settles everything except
    /// the newest `settle_samples()` samples: its state at the settle
    /// boundary comes closed-form from [`BackwardPriming`], and only the
    /// settled outputs run the recursion. Each call pays the
    /// `O(settle + ext)` priming once, so callers should quantize: many
    /// small pushes prime many times.
    pub fn push_chunk(&mut self, chunk: &[f64], out: &mut Vec<f64>) {
        if chunk.is_empty() {
            return;
        }
        if !self.primed {
            // Mimic the batch left edge: run the forward state over an
            // even reflection of the first chunk so the first real sample
            // is approached from plausible history rather than silence.
            let ext = self.ext.min(chunk.len() - 1);
            for &v in chunk[1..=ext].iter().rev() {
                let _ = self.forward.push(v);
            }
            self.primed = true;
        }
        let start = self.tail.len();
        self.tail.extend_from_slice(chunk);
        for v in &mut self.tail[start..] {
            *v = self.forward.push(*v);
        }

        let len = self.tail.len();
        let settled = len.saturating_sub(self.settle);
        if settled == 0 {
            return;
        }
        // Backward pass, newest first. Its state after an even
        // reflection about the newest sample and the `settle` newest
        // samples is loaded closed-form; the oldest `settled` outputs
        // then run the recursion. They arrive newest-first, so the
        // appended run is reversed in place.
        self.priming.load(&self.tail, &mut self.backward.state);
        let first = out.len();
        for &v in self.tail[..settled].iter().rev() {
            out.push(self.backward.push(v));
        }
        out[first..].reverse();
        self.tail.drain(..settled);
    }

    /// Captures the mutable zero-phase state: forward-cascade registers,
    /// unsettled tail and the priming flag. The backward cascade is
    /// loaded afresh before every pass, so it is not part of the state.
    #[must_use]
    pub fn snapshot(&self) -> ZeroPhaseState {
        ZeroPhaseState {
            forward: self.forward.snapshot(),
            tail: self.tail.clone(),
            primed: self.primed,
        }
    }

    /// Overwrites the mutable state from a snapshot. The stage must have
    /// been constructed with the same design and `settle`/`ext`
    /// parameters for the resumed stream to be bitwise identical.
    ///
    /// # Errors
    ///
    /// [`DspError::LengthMismatch`] when the forward-cascade section
    /// count differs.
    pub fn restore(&mut self, state: &ZeroPhaseState) -> Result<(), DspError> {
        self.forward.restore(&state.forward)?;
        self.tail.clear();
        self.tail.extend_from_slice(&state.tail);
        self.primed = state.primed;
        Ok(())
    }
}

/// Mutable state of a [`StreamingZeroPhase`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZeroPhaseState {
    /// Forward-pass cascade registers.
    pub forward: CascadeState,
    /// Forward-pass outputs not yet settled.
    pub tail: Vec<f64>,
    /// Whether the stream-start forward priming has run.
    pub primed: bool,
}

/// A sliding window of raw samples addressed in absolute stream
/// coordinates, with amortized O(1) trimming.
///
/// `Vec::drain(..k)` on every push — the PR-1 [`std::vec::Vec`]
/// sliding-window idiom — is O(remaining) per call, O(n²) over a
/// session. `HistoryRing` instead tracks a logical start offset and
/// compacts with a single `copy_within` only once the dead prefix
/// exceeds the live region, so each sample is moved O(1) times
/// amortized.
#[derive(Debug, Clone, Default)]
pub struct HistoryRing {
    buf: Vec<f64>,
    /// Index into `buf` of the first live sample.
    head: usize,
    /// Absolute stream index of the first live sample.
    base: usize,
}

impl HistoryRing {
    /// Creates an empty ring.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absolute index of the first retained sample.
    #[must_use]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Absolute index one past the newest sample.
    #[must_use]
    pub fn end(&self) -> usize {
        self.base + self.len()
    }

    /// Number of live samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// `true` when no live samples remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends samples at the head of the stream.
    pub fn extend(&mut self, samples: &[f64]) {
        self.buf.extend_from_slice(samples);
    }

    /// Drops every sample with absolute index below `abs`. Amortized
    /// O(dropped): compaction only runs when the dead prefix outweighs
    /// the live samples.
    pub fn discard_before(&mut self, abs: usize) {
        let abs = abs.clamp(self.base, self.end());
        self.head += abs - self.base;
        self.base = abs;
        if self.head > self.buf.len() - self.head {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
    }

    /// Borrows the samples `[lo, hi)` in absolute coordinates.
    ///
    /// # Panics
    ///
    /// Panics when the range is not fully retained.
    #[must_use]
    pub fn slice(&self, lo: usize, hi: usize) -> &[f64] {
        assert!(lo >= self.base && hi <= self.end() && lo <= hi);
        &self.buf[self.head + (lo - self.base)..self.head + (hi - self.base)]
    }

    /// The live samples as one contiguous slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.head..]
    }

    /// Captures the live window and its absolute base index. Dead prefix
    /// capacity is not carried — a restored ring is freshly compacted.
    #[must_use]
    pub fn snapshot(&self) -> HistoryRingState {
        HistoryRingState {
            base: self.base,
            samples: self.as_slice().to_vec(),
        }
    }

    /// Rebuilds the ring from a snapshot, replacing any current content.
    pub fn restore(&mut self, state: &HistoryRingState) {
        self.buf.clear();
        self.buf.extend_from_slice(&state.samples);
        self.head = 0;
        self.base = state.base;
    }
}

/// Mutable state of a [`HistoryRing`]: the live window in absolute
/// stream coordinates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryRingState {
    /// Absolute stream index of the first retained sample.
    pub base: usize,
    /// The retained samples, oldest first.
    pub samples: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design_cache;
    use crate::window::Window;
    use crate::zero_phase::filtfilt_iir;

    const FS: f64 = 250.0;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / FS;
                (2.0 * std::f64::consts::PI * 3.0 * t).sin()
                    + 0.4 * (2.0 * std::f64::consts::PI * 17.0 * t).sin()
                    + 0.1 * (i as f64 * 0.7919).sin()
            })
            .collect()
    }

    #[test]
    fn streaming_cascade_matches_batch_bitwise() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let x = signal(1000);
        let batch = f.filter(&x);
        let mut s = StreamingCascade::new(f);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for chunk in x.chunks(37) {
            s.process_chunk(chunk, &mut buf);
            out.extend_from_slice(&buf);
        }
        assert_eq!(out, batch);
    }

    #[test]
    fn streaming_cascade_chunk_size_invariant() {
        let f = design_cache::butterworth_highpass(2, 0.4, FS).unwrap();
        let x = signal(700);
        let run = |chunk: usize| {
            let mut s = StreamingCascade::new(Arc::clone(&f));
            let mut out = Vec::new();
            let mut buf = Vec::new();
            for c in x.chunks(chunk) {
                s.process_chunk(c, &mut buf);
                out.extend_from_slice(&buf);
            }
            out
        };
        assert_eq!(run(1), run(613));
    }

    #[test]
    fn streaming_fir_matches_batch_bitwise() {
        let f = design_cache::fir_bandpass(32, 0.05, 40.0, FS, Window::Hamming).unwrap();
        let x = signal(800);
        let batch = f.filter(&x);
        let mut s = StreamingFir::new(f);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for chunk in x.chunks(41) {
            s.process_chunk(chunk, &mut buf);
            out.extend_from_slice(&buf);
        }
        assert_eq!(out.len(), batch.len());
        for (a, b) in out.iter().zip(&batch) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn streaming_derivative_matches_batch() {
        let x = signal(500);
        let batch = crate::diff::derivative(&x, FS).unwrap();
        let mut s = StreamingDerivative::new(FS);
        let out: Vec<f64> = x.iter().filter_map(|&v| s.push(v)).collect();
        // streaming emits y[0..n-1]; batch's last sample is the
        // backward-difference edge a stream never sees
        assert_eq!(out.len(), x.len() - 1);
        assert_eq!(out[..], batch[..x.len() - 1]);
    }

    #[test]
    fn stateful_biquad_matches_batch() {
        let f = design_cache::butterworth_lowpass(2, 20.0, FS).unwrap();
        let section = f.sections()[0];
        let x = signal(300);
        let batch = section.filter(&x);
        let mut s = StatefulBiquad::new(section);
        let out: Vec<f64> = x.iter().map(|&v| s.push(v)).collect();
        assert_eq!(out, batch);
    }

    #[test]
    fn zero_phase_converges_to_batch_interior() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let x = signal(3000);
        let batch = filtfilt_iir(&f, &x).unwrap();
        let mut s = StreamingZeroPhase::new(Arc::clone(&f), (0.5 * FS) as usize, 90);
        let mut out = Vec::new();
        for chunk in x.chunks(250) {
            s.push_chunk(chunk, &mut out);
        }
        assert!(out.len() >= x.len() - (0.5 * FS) as usize);
        // Compare the interior (skip the priming-affected first 2 s).
        let scale = x.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        for i in 500..out.len() {
            assert!(
                (out[i] - batch[i]).abs() < 1e-6 * scale,
                "sample {i}: {} vs {}",
                out[i],
                batch[i]
            );
        }
    }

    /// Pushes `x` in the repeating chunk pattern `chunks`, returning each
    /// push's emitted run.
    fn push_pattern(s: &mut StreamingZeroPhase, x: &[f64], chunks: &[usize]) -> Vec<Vec<f64>> {
        let mut runs = Vec::new();
        let mut fed = 0;
        for &c in chunks.iter().cycle() {
            if fed == x.len() {
                break;
            }
            let c = c.min(x.len() - fed);
            let mut run = Vec::new();
            s.push_chunk(&x[fed..fed + c], &mut run);
            runs.push(run);
            fed += c;
        }
        runs
    }

    #[test]
    fn zero_phase_chunk_sequence_is_reproducible_and_settles_all_but_settle() {
        // Each push is one quantum: the same chunk sequence must give
        // bitwise-equal output from a fresh, a reset and a restored
        // stage, and once primed a push emits everything but the newest
        // `settle` samples of the tail.
        let f = design_cache::butterworth_highpass(2, 0.4, FS).unwrap();
        let (settle, ext) = ((2.0 * FS) as usize, 625);
        let x = signal(3000);
        let pattern = [250, 249, 37, 1, 613, 0, 250];
        let fresh = push_pattern(
            &mut StreamingZeroPhase::new(Arc::clone(&f), settle, ext),
            &x,
            &pattern,
        );

        let mut reset = StreamingZeroPhase::new(Arc::clone(&f), settle, ext);
        reset.push_chunk(&signal(900)[..], &mut Vec::new());
        reset.reset();
        assert_eq!(push_pattern(&mut reset, &x, &pattern), fresh);

        // Restore mid-sequence, after the fourth push.
        let split: usize = pattern[..4].iter().sum();
        let mut head = StreamingZeroPhase::new(Arc::clone(&f), settle, ext);
        let mut resumed = push_pattern(&mut head, &x[..split], &pattern[..4]);
        let mut restored = StreamingZeroPhase::new(Arc::clone(&f), settle, ext);
        restored.push_chunk(&signal(400)[..], &mut Vec::new());
        restored.restore(&head.snapshot()).unwrap();
        let mut rest = pattern[4..].to_vec();
        rest.extend_from_slice(&pattern[..4]);
        resumed.extend(push_pattern(&mut restored, &x[split..], &rest));
        assert_eq!(resumed, fresh);

        let mut s = StreamingZeroPhase::new(Arc::clone(&f), settle, ext);
        let mut fed = 0;
        for &c in pattern.iter().cycle() {
            if fed == x.len() {
                break;
            }
            let c = c.min(x.len() - fed);
            let tail_len = s.snapshot().tail.len() + c;
            let mut run = Vec::new();
            s.push_chunk(&x[fed..fed + c], &mut run);
            fed += c;
            assert_eq!(run.len(), tail_len.saturating_sub(settle));
            assert_eq!(s.snapshot().tail.len(), tail_len.min(settle));
        }
        assert!(fresh.iter().map(Vec::len).sum::<usize>() > 2000);
    }

    /// The serial backward pass: build the reflection plus reversed tail
    /// in a scratch vector, filter it in place from a zeroed cascade,
    /// and read the oldest `settled` outputs off its end.
    struct ScratchReference {
        forward: StreamingCascade,
        backward: StreamingCascade,
        tail: Vec<f64>,
        settle: usize,
        ext: usize,
        primed: bool,
    }

    impl ScratchReference {
        fn push_chunk(&mut self, chunk: &[f64], out: &mut Vec<f64>) {
            if chunk.is_empty() {
                return;
            }
            if !self.primed {
                let ext = self.ext.min(chunk.len() - 1);
                for i in (1..=ext).rev() {
                    let _ = self.forward.push(chunk[i]);
                }
                self.primed = true;
            }
            for &v in chunk {
                let y = self.forward.push(v);
                self.tail.push(y);
            }
            let settled = self.tail.len().saturating_sub(self.settle);
            if settled == 0 {
                return;
            }
            let ext = self.ext.min(self.tail.len() - 1);
            let mut scratch = Vec::new();
            for i in (self.tail.len() - 1 - ext)..self.tail.len() - 1 {
                scratch.push(self.tail[i]);
            }
            scratch.extend(self.tail.iter().rev());
            self.backward.reset();
            self.backward.process_in_place(&mut scratch);
            let n = scratch.len();
            for i in 0..settled {
                out.push(scratch[n - 1 - i]);
            }
            self.tail.drain(..settled);
        }
    }

    #[test]
    fn closed_form_backward_priming_matches_serial_path_within_tolerance() {
        // The closed-form priming sums the same linear map in another
        // order, so it agrees with the serial recursion to rounding, not
        // bitwise. The last pattern's short pushes clamp the reflection.
        let designs = [
            (
                design_cache::butterworth_lowpass(4, 20.0, FS).unwrap(),
                125,
                90,
            ),
            (
                design_cache::butterworth_highpass(2, 0.4, FS).unwrap(),
                500,
                625,
            ),
        ];
        let x = signal(4000);
        for (f, settle, ext) in designs {
            for pattern in [&[250usize][..], &[249, 250], &[1, 7, 300, 2, 999, 125]] {
                let mut s = StreamingZeroPhase::new(Arc::clone(&f), settle, ext);
                let mut reference = ScratchReference {
                    forward: StreamingCascade::new(Arc::clone(&f)),
                    backward: StreamingCascade::new(Arc::clone(&f)),
                    tail: Vec::new(),
                    settle,
                    ext,
                    primed: false,
                };
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let mut fed = 0;
                for &c in pattern.iter().cycle() {
                    if fed == x.len() {
                        break;
                    }
                    let c = c.min(x.len() - fed);
                    s.push_chunk(&x[fed..fed + c], &mut a);
                    reference.push_chunk(&x[fed..fed + c], &mut b);
                    fed += c;
                }
                assert!(a.len() >= x.len() - settle - 999);
                assert_eq!(a.len(), b.len(), "pattern {pattern:?}");
                let peak = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let worst = a
                    .iter()
                    .zip(&b)
                    .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
                assert!(
                    worst <= 1e-12 * peak,
                    "pattern {pattern:?}: max |Δ| {worst:e} vs peak {peak:e}"
                );
            }
        }
    }

    #[test]
    fn zero_phase_reset_matches_fresh_instance() {
        let f = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let x = signal(1500);
        let mut reused = StreamingZeroPhase::new(Arc::clone(&f), (0.5 * FS) as usize, 90);
        let mut garbage = Vec::new();
        reused.push_chunk(&x[..700], &mut garbage);
        reused.reset();
        let mut fresh = StreamingZeroPhase::new(Arc::clone(&f), (0.5 * FS) as usize, 90);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for chunk in x.chunks(125) {
            reused.push_chunk(chunk, &mut a);
            fresh.push_chunk(chunk, &mut b);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn history_ring_tracks_absolute_coordinates() {
        let mut r = HistoryRing::new();
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        r.extend(&x[..60]);
        r.discard_before(25);
        r.extend(&x[60..]);
        assert_eq!(r.base(), 25);
        assert_eq!(r.end(), 100);
        assert_eq!(r.slice(30, 33), &[30.0, 31.0, 32.0]);
        r.discard_before(90);
        assert_eq!(r.len(), 10);
        assert_eq!(r.slice(95, 96), &[95.0]);
        assert_eq!(r.as_slice()[0], 90.0);
    }

    #[test]
    fn kernel_snapshots_resume_bitwise_mid_stream() {
        let lp = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let fir = design_cache::fir_bandpass(32, 0.05, 40.0, FS, Window::Hamming).unwrap();
        let x = signal(1200);
        let split = 457;

        // Straight-through references.
        let mut c_ref = StreamingCascade::new(Arc::clone(&lp));
        let mut f_ref = StreamingFir::new(Arc::clone(&fir));
        let mut d_ref = StreamingDerivative::new(FS);
        let mut z_ref = StreamingZeroPhase::new(Arc::clone(&lp), (0.5 * FS) as usize, 90);
        let mut z_ref_out = Vec::new();
        let mut refs = Vec::new();
        for (i, &v) in x.iter().enumerate() {
            refs.push((c_ref.push(v), f_ref.push(v), d_ref.push(v)));
            z_ref.push_chunk(&x[i..=i], &mut z_ref_out);
        }

        // Run to `split`, snapshot, restore into fresh kernels, resume.
        let mut c = StreamingCascade::new(Arc::clone(&lp));
        let mut f = StreamingFir::new(Arc::clone(&fir));
        let mut d = StreamingDerivative::new(FS);
        let mut z = StreamingZeroPhase::new(Arc::clone(&lp), (0.5 * FS) as usize, 90);
        let mut z_out = Vec::new();
        for (i, &v) in x[..split].iter().enumerate() {
            let got = (c.push(v), f.push(v), d.push(v));
            assert_eq!(got, refs[i]);
            z.push_chunk(&x[i..=i], &mut z_out);
        }
        let (cs, fs_state, ds, zs) = (c.snapshot(), f.snapshot(), d.snapshot(), z.snapshot());
        let mut c2 = StreamingCascade::new(Arc::clone(&lp));
        let mut f2 = StreamingFir::new(Arc::clone(&fir));
        let mut d2 = StreamingDerivative::new(FS);
        let mut z2 = StreamingZeroPhase::new(Arc::clone(&lp), (0.5 * FS) as usize, 90);
        c2.restore(&cs).unwrap();
        f2.restore(&fs_state).unwrap();
        d2.restore(&ds);
        z2.restore(&zs).unwrap();
        for (i, &v) in x[split..].iter().enumerate() {
            let got = (c2.push(v), f2.push(v), d2.push(v));
            assert_eq!(got, refs[split + i], "sample {}", split + i);
            z2.push_chunk(&x[split + i..=split + i], &mut z_out);
        }
        assert_eq!(z_out, z_ref_out);
    }

    #[test]
    fn cascade_restore_rejects_shape_mismatch() {
        let lp4 = design_cache::butterworth_lowpass(4, 20.0, FS).unwrap();
        let lp2 = design_cache::butterworth_lowpass(2, 20.0, FS).unwrap();
        let snap = StreamingCascade::new(lp4).snapshot();
        let mut wrong = StreamingCascade::new(lp2);
        assert!(wrong.restore(&snap).is_err());
    }

    #[test]
    fn history_ring_snapshot_round_trips() {
        let mut r = HistoryRing::new();
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        r.extend(&x);
        r.discard_before(37);
        let snap = r.snapshot();
        let mut r2 = HistoryRing::new();
        r2.extend(&[9.0; 5]);
        r2.restore(&snap);
        assert_eq!(r2.base(), 37);
        assert_eq!(r2.end(), 100);
        assert_eq!(r2.as_slice(), r.as_slice());
    }

    #[test]
    fn history_ring_discard_is_amortized() {
        // Push/trim many times; the buffer's capacity must stay bounded
        // by ~2× the live window rather than growing with the stream.
        let mut r = HistoryRing::new();
        let chunk = vec![1.0; 100];
        for _ in 0..1000 {
            r.extend(&chunk);
            let end = r.end();
            r.discard_before(end.saturating_sub(500));
        }
        assert_eq!(r.len(), 500);
        assert!(r.buf.capacity() < 5000, "capacity {}", r.buf.capacity());
    }
}
