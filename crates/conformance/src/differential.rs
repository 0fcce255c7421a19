//! Differential engine: the same corpus recording through every
//! analysis engine, with the disagreements quantified.
//!
//! Three engines exist for the same signal — the batch [`Pipeline`],
//! the O(hop) incremental [`BeatStream`] and the windowed
//! [`ReanalysisBeatStream`] oracle — and the streaming PRs promised
//! specific equivalences: bitwise chunk-size invariance, and
//! `push_qualified` bit-identical to `push` on clean input. This module
//! re-proves those promises over the *whole* pinned corpus (including
//! the fault scenarios) instead of a handful of unit seeds, and bounds
//! the batch↔stream disagreement with explicit tolerance bands.
//!
//! On fault cases the comparison excludes beats near the fault events
//! ([`FAULT_GUARD_S`] on each side): the batch pipeline filters the
//! corruption globally while the streaming ladder gates it locally, so
//! *inside* a fault window the engines legitimately disagree — the
//! contract is that they agree everywhere else.

use cardiotouch::compare::match_by_r;
use cardiotouch::config::PipelineConfig;
use cardiotouch::pipeline::{BeatReport, Pipeline};
use cardiotouch::snapshot::BeatStreamSnapshot;
use cardiotouch::stream::{BeatStream, ReanalysisBeatStream};
use cardiotouch_physio::faults::FaultScenario;

use crate::corpus::{CorpusCase, RenderedCase};
use crate::ConformanceError;

/// Guard band around fault events, seconds: beats whose R falls within
/// a fault event padded by this much on each side are excluded from
/// batch↔stream comparison (transient disagreement there is by
/// design).
pub const FAULT_GUARD_S: f64 = 4.0;

/// Tolerance bands for batch↔stream agreement. Defaults mirror the
/// bands the streaming engine's own regression tests established in
/// the O(hop) PR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Maximum |ΔR| in samples for two beats to count as the same
    /// beat.
    pub r_tol_samples: usize,
    /// Maximum |ΔLVET| in seconds for a matched pair to count as
    /// agreeing.
    pub lvet_agree_s: f64,
    /// Minimum fraction of streamed beats that must match a batch
    /// beat.
    pub min_match_fraction: f64,
    /// Minimum fraction of matched pairs that must agree on LVET.
    pub min_agree_fraction: f64,
    /// Minimum streamed-beat count as a fraction of the batch count.
    pub min_count_ratio: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            r_tol_samples: 2,
            lvet_agree_s: 0.045,
            min_match_fraction: 0.90,
            min_agree_fraction: 0.85,
            min_count_ratio: 0.75,
        }
    }
}

/// Result of the windowed-oracle leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReanalysisLeg {
    /// Beats the oracle emitted (within the compared region).
    pub beats: usize,
    /// How many matched a batch beat within the R tolerance.
    pub matched: usize,
}

/// Everything the differential engine measured for one corpus case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// Corpus case identity.
    pub id: String,
    /// Whether the case carries a fault scenario (comparison then
    /// excludes the guarded fault windows).
    pub faulted: bool,
    /// Batch beats inside the compared region (outside fault guards).
    pub batch_beats: usize,
    /// Batch beats additionally restricted to the stream's emission
    /// span — the region between the stream's first and last emitted
    /// R. The batch engine delineates the warmup head and the
    /// unflushed tail that the incremental engine structurally cannot
    /// emit; counting those against the stream would measure the
    /// engine architecture, not disagreement, so the count-ratio band
    /// compares against this denominator.
    pub batch_in_span: usize,
    /// Streamed beats inside the compared region, excluding each
    /// (re)start seed beat (the first emission overall and the first
    /// after every guarded fault window): a path-dependent
    /// delineation strategy derives that beat's prior from a cold
    /// seed while the batch engine's prior is already converged
    /// there, so the two may legitimately disagree on it.
    pub stream_beats: usize,
    /// Streamed beats matched to a batch beat within the R tolerance.
    pub matched: usize,
    /// Matched pairs agreeing on LVET within the band.
    pub agreed: usize,
    /// Two different chunkings produced bit-identical emissions.
    pub chunk_invariant: bool,
    /// `push_qualified` reports bit-identical to `push` (clean cases
    /// only; `None` on fault cases, where the ladder legitimately
    /// suppresses beats).
    pub qualified_identical: Option<bool>,
    /// Snapshot → serialize → restore at a mid-recording hop boundary,
    /// then resume: emissions bit-identical to the unmigrated stream.
    /// Checked on **every** case, fault scenarios included — migration
    /// moves the complete engine state, so unlike the batch↔stream
    /// comparison no guard band applies.
    pub migration_identical: bool,
    /// The windowed-oracle leg, when requested.
    pub reanalysis: Option<ReanalysisLeg>,
}

impl CaseReport {
    /// Checks the report against `tol`, returning one line per
    /// violated band (empty means the case conforms).
    #[must_use]
    pub fn violations(&self, tol: &Tolerances) -> Vec<String> {
        let id = &self.id;
        let mut out = Vec::new();
        if !self.chunk_invariant {
            out.push(format!("{id}: emissions depend on chunk size"));
        }
        if self.qualified_identical == Some(false) {
            out.push(format!(
                "{id}: push_qualified diverges from push on clean input"
            ));
        }
        if !self.migration_identical {
            out.push(format!(
                "{id}: snapshot→restore migration diverges from the unmigrated stream"
            ));
        }
        let count_ratio = self.stream_beats as f64 / self.batch_in_span.max(1) as f64;
        if count_ratio < tol.min_count_ratio {
            out.push(format!(
                "{id}: stream emitted {} of {} in-span batch beats (ratio {count_ratio:.3} < {})",
                self.stream_beats, self.batch_in_span, tol.min_count_ratio
            ));
        }
        let match_frac = if self.stream_beats == 0 {
            1.0
        } else {
            self.matched as f64 / self.stream_beats as f64
        };
        if match_frac < tol.min_match_fraction {
            out.push(format!(
                "{id}: only {}/{} streamed beats matched batch (frac {match_frac:.3} < {})",
                self.matched, self.stream_beats, tol.min_match_fraction
            ));
        }
        if self.matched > 0 {
            let agree_frac = self.agreed as f64 / self.matched as f64;
            if agree_frac < tol.min_agree_fraction {
                out.push(format!(
                    "{id}: LVET agreement {}/{} (frac {agree_frac:.3} < {})",
                    self.agreed, self.matched, tol.min_agree_fraction
                ));
            }
        }
        if let Some(re) = &self.reanalysis {
            let frac = if re.beats == 0 {
                1.0
            } else {
                re.matched as f64 / re.beats as f64
            };
            if frac < tol.min_match_fraction {
                out.push(format!(
                    "{id}: reanalysis oracle matched {}/{} (frac {frac:.3} < {})",
                    re.matched, re.beats, tol.min_match_fraction
                ));
            }
        }
        out
    }
}

/// `true` when the beat's R peak is safely outside every fault event
/// (padded by [`FAULT_GUARD_S`]). Shared with the accuracy tracker,
/// which uses the same guard to decide which truth landmarks still
/// describe the corrupted signal.
pub(crate) fn outside_faults(r: usize, faults: Option<&FaultScenario>, fs: f64) -> bool {
    let Some(scenario) = faults else { return true };
    let guard = (FAULT_GUARD_S * fs) as usize;
    scenario.events().iter().all(|ev| {
        let lo = ev.start.saturating_sub(guard);
        let hi = ev.end() + guard;
        r < lo || r >= hi
    })
}

fn bitwise_equal(a: &[BeatReport], b: &[BeatReport]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.r, x.b, x.c, x.x) == (y.r, y.b, y.c, y.x)
                && x.pep_s.to_bits() == y.pep_s.to_bits()
                && x.lvet_s.to_bits() == y.lvet_s.to_bits()
                && x.sv_kubicek_ml.to_bits() == y.sv_kubicek_ml.to_bits()
                && x.co_l_per_min.to_bits() == y.co_l_per_min.to_bits()
        })
}

fn run_stream(rendered: &RenderedCase, chunk: usize) -> Result<Vec<BeatReport>, ConformanceError> {
    let mut stream = BeatStream::new(PipelineConfig::paper_default(rendered.fs))?;
    let mut out = Vec::new();
    for (e, z) in rendered.ecg.chunks(chunk).zip(rendered.z.chunks(chunk)) {
        out.extend(stream.push(e, z)?);
    }
    Ok(out)
}

fn run_stream_qualified(
    rendered: &RenderedCase,
    chunk: usize,
) -> Result<Vec<BeatReport>, ConformanceError> {
    let mut stream = BeatStream::new(PipelineConfig::paper_default(rendered.fs))?;
    let mut out = Vec::new();
    for (e, z) in rendered.ecg.chunks(chunk).zip(rendered.z.chunks(chunk)) {
        out.extend(stream.push_qualified(e, z)?.into_iter().map(|q| q.report));
    }
    Ok(out)
}

/// Replays the case with the same chunking as [`run_stream`], but
/// halfway through — at a hop boundary — the stream is snapshotted,
/// serialized to bytes, deserialized, and restored into a brand-new
/// engine that finishes the recording. This is the live-migration /
/// crash-recovery path: the only state that survives the hand-off is
/// what the byte codec carries.
fn run_stream_migrated(
    rendered: &RenderedCase,
    chunk: usize,
) -> Result<Vec<BeatReport>, ConformanceError> {
    let config = PipelineConfig::paper_default(rendered.fs);
    let hop = rendered.fs as usize;
    // Midpoint quantized down to a whole hop (the engine processes in
    // 1 s hops, so this is a hop boundary once pushed).
    let split = (rendered.ecg.len() / 2 / hop) * hop;
    let mut first = BeatStream::new(config)?;
    let mut out = Vec::new();
    for (e, z) in rendered.ecg[..split]
        .chunks(chunk)
        .zip(rendered.z[..split].chunks(chunk))
    {
        out.extend(first.push(e, z)?);
    }
    let bytes = first.snapshot().to_bytes();
    drop(first);
    let snapshot = BeatStreamSnapshot::from_bytes(&bytes)?;
    let mut resumed = BeatStream::restore(config, &snapshot)?;
    for (e, z) in rendered.ecg[split..]
        .chunks(chunk)
        .zip(rendered.z[split..].chunks(chunk))
    {
        out.extend(resumed.push(e, z)?);
    }
    Ok(out)
}

fn run_reanalysis(
    rendered: &RenderedCase,
    chunk: usize,
) -> Result<Vec<BeatReport>, ConformanceError> {
    let mut stream = ReanalysisBeatStream::new(PipelineConfig::paper_default(rendered.fs))?;
    let mut out = Vec::new();
    for (e, z) in rendered.ecg.chunks(chunk).zip(rendered.z.chunks(chunk)) {
        out.extend(stream.push(e, z)?);
    }
    Ok(out)
}

/// Runs one corpus case through the batch pipeline and the incremental
/// stream (two chunkings), plus the windowed oracle when
/// `with_reanalysis` is set (the oracle costs ~20× the batch run —
/// callers subset it).
///
/// # Errors
///
/// Propagates rendering and engine errors.
pub fn run_case(
    case: &CorpusCase,
    tol: &Tolerances,
    with_reanalysis: bool,
) -> Result<CaseReport, ConformanceError> {
    let rendered = case.render()?;
    let fs = rendered.fs;
    let faults = rendered.faults.as_ref();

    let pipeline = Pipeline::new(PipelineConfig::paper_default(fs))?;
    let analysis = pipeline.analyze(&rendered.ecg, &rendered.z)?;
    let batch: Vec<&BeatReport> = analysis
        .beats()
        .iter()
        .filter(|b| outside_faults(b.r, faults, fs))
        .collect();

    // Two deliberately unrelated chunkings: a 0.5 s transport cadence
    // and a prime size that never aligns with the 1 s hop. On clean
    // input the engine promises bitwise invariance outright; under a
    // fault a large chunk lets the ladder observe past the hop
    // boundary before beats finalize, so suppression near the event
    // may differ — there the promise (and this check) applies outside
    // the guarded fault windows.
    let streamed = run_stream(&rendered, 125)?;
    let streamed_alt = run_stream(&rendered, 333)?;
    let outside = |beats: &[BeatReport]| -> Vec<BeatReport> {
        beats
            .iter()
            .filter(|b| outside_faults(b.r, faults, fs))
            .copied()
            .collect()
    };
    let chunk_invariant = if faults.is_none() {
        bitwise_equal(&streamed, &streamed_alt)
    } else {
        bitwise_equal(&outside(&streamed), &outside(&streamed_alt))
    };

    let qualified_identical = if faults.is_none() {
        let qualified = run_stream_qualified(&rendered, 125)?;
        Some(bitwise_equal(&streamed, &qualified))
    } else {
        None
    };

    // Migration leg: same chunking as `streamed`, but the engine is
    // serialized and rebuilt halfway through. Bitwise on every case —
    // fault scenarios included.
    let migrated = run_stream_migrated(&rendered, 125)?;
    let migration_identical = bitwise_equal(&streamed, &migrated);

    let streamed_outside: Vec<&BeatReport> = streamed
        .iter()
        .filter(|b| outside_faults(b.r, faults, fs))
        .collect();
    // Seed beats: the stream's first emission, plus its first emission
    // past each guarded fault window. A path-dependent delineation
    // strategy (the weighted-window B prior) starts those beats from a
    // cold seed while the batch engine's prior is converged there, so
    // the agreement bands skip them — every later beat must agree.
    let guard = (FAULT_GUARD_S * fs) as usize;
    let mut seeds: Vec<usize> = Vec::new();
    if let Some(first) = streamed_outside.first() {
        seeds.push(first.r);
    }
    if let Some(scenario) = faults {
        for ev in scenario.events() {
            let hi = ev.end() + guard;
            if let Some(b) = streamed_outside.iter().find(|b| b.r >= hi) {
                if !seeds.contains(&b.r) {
                    seeds.push(b.r);
                }
            }
        }
    }
    let span = streamed_outside
        .first()
        .map(|f| (f.r, streamed_outside.last().expect("non-empty").r));
    let stream_cmp: Vec<&BeatReport> = streamed_outside
        .iter()
        .filter(|b| !seeds.contains(&b.r))
        .copied()
        .collect();
    let batch_in_span = batch
        .iter()
        .filter(|b| span.is_some_and(|(lo, hi)| b.r >= lo && b.r <= hi))
        .count();

    let batch_rs: Vec<usize> = batch.iter().map(|b| b.r).collect();
    let stream_rs: Vec<usize> = stream_cmp.iter().map(|b| b.r).collect();
    let pairs = match_by_r(&stream_rs, &batch_rs, tol.r_tol_samples);
    let agreed = pairs
        .iter()
        .filter(|&&(si, bi)| (stream_cmp[si].lvet_s - batch[bi].lvet_s).abs() < tol.lvet_agree_s)
        .count();

    let reanalysis = if with_reanalysis {
        let oracle = run_reanalysis(&rendered, 125)?;
        let oracle_cmp: Vec<usize> = oracle
            .iter()
            .filter(|b| outside_faults(b.r, faults, fs))
            .map(|b| b.r)
            .collect();
        let oracle_pairs = match_by_r(&oracle_cmp, &batch_rs, tol.r_tol_samples);
        Some(ReanalysisLeg {
            beats: oracle_cmp.len(),
            matched: oracle_pairs.len(),
        })
    } else {
        None
    };

    Ok(CaseReport {
        id: rendered.id,
        faulted: faults.is_some(),
        batch_beats: batch.len(),
        batch_in_span,
        stream_beats: stream_cmp.len(),
        matched: pairs.len(),
        agreed,
        chunk_invariant,
        qualified_identical,
        migration_identical,
        reanalysis,
    })
}

/// Runs the whole corpus, enabling the windowed-oracle leg only for
/// the cases whose ids appear in `reanalysis_ids`.
///
/// # Errors
///
/// Propagates the first case failure.
pub fn run_corpus(
    corpus: &[CorpusCase],
    tol: &Tolerances,
    reanalysis_ids: &[&str],
) -> Result<Vec<CaseReport>, ConformanceError> {
    corpus
        .iter()
        .map(|case| {
            let with_reanalysis = reanalysis_ids.iter().any(|id| *id == case.id());
            run_case(case, tol, with_reanalysis)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_fire_on_each_band() {
        let tol = Tolerances::default();
        let clean = CaseReport {
            id: "t".into(),
            faulted: false,
            batch_beats: 30,
            batch_in_span: 29,
            stream_beats: 28,
            matched: 27,
            agreed: 26,
            chunk_invariant: true,
            qualified_identical: Some(true),
            migration_identical: true,
            reanalysis: Some(ReanalysisLeg {
                beats: 20,
                matched: 19,
            }),
        };
        assert!(clean.violations(&tol).is_empty());

        let mut bad = clean.clone();
        bad.chunk_invariant = false;
        bad.qualified_identical = Some(false);
        bad.migration_identical = false;
        bad.stream_beats = 10;
        bad.matched = 5;
        bad.agreed = 2;
        bad.reanalysis = Some(ReanalysisLeg {
            beats: 20,
            matched: 3,
        });
        let v = bad.violations(&tol);
        assert_eq!(v.len(), 7, "{v:?}");
    }

    #[test]
    fn fault_guard_excludes_only_guarded_region() {
        let scenario = FaultScenario::parse("loss=0@10s+1s", 250.0).unwrap();
        let fs = 250.0;
        // event spans [2500, 2750); guard pads to [1500, 3750)
        assert!(outside_faults(1499, Some(&scenario), fs));
        assert!(!outside_faults(1500, Some(&scenario), fs));
        assert!(!outside_faults(3749, Some(&scenario), fs));
        assert!(outside_faults(3750, Some(&scenario), fs));
        assert!(outside_faults(0, None, fs));
    }
}
