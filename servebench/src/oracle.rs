//! Correctness oracle and ground-truth scoring.
//!
//! The reference for every served session is the same wire bytes sent
//! through an inline [`FrontDoor`] with one [`BeatStream`] per session —
//! the single-threaded twin of the fleet path. A session fails when it
//! was refused, is missing from the collected results, carries a
//! non-finite beat field, or is not bitwise-equal to its reference.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cardiotouch::config::PipelineConfig;
use cardiotouch::stream::{BeatStream, QualifiedBeat, SignalState};
use cardiotouch::wire::{FrontDoor, WireSessionResult};
use cardiotouch_conformance::accuracy::R_MATCH_TOL_SAMPLES;

/// One reference session: its result plus, per beat, the input chunk
/// whose push emitted it and the stream position right after.
#[derive(Debug, Clone)]
pub struct RefRun {
    /// The uninterrupted inline result.
    pub result: WireSessionResult,
    /// Index of the chunk (mux slot) that emitted each beat.
    pub emit_slot: Vec<usize>,
    /// Samples pushed into the session when each beat came out.
    pub emit_pos: Vec<usize>,
}

impl RefRun {
    /// Number of beats emitted by chunks `0..=slot`.
    pub fn beats_through(&self, slot: usize) -> usize {
        self.emit_slot.partition_point(|&s| s <= slot)
    }

    /// The expected result for `session`, keeping only beats from index
    /// `from` on (a recovered run only re-delivers beats emitted after
    /// its checkpoint).
    pub fn expected(&self, session: u32, from: usize) -> WireSessionResult {
        WireSessionResult {
            session,
            beats: self.result.beats[from..].to_vec(),
            snapshot_bytes: self.result.snapshot_bytes.clone(),
            states: self.result.states,
        }
    }
}

struct Live {
    stream: BeatStream,
    run: RefRun,
}

/// Costs of the inline reference runs, measured around the benchmark's
/// own calls: the front door's self time per frame and the duration of
/// every `push_qualified` call that ran a hop.
#[derive(Debug, Default)]
pub struct RefStats {
    /// Frames the reference front doors decoded.
    pub frames: u64,
    /// `FrontDoor::push` time minus the nested `push_qualified` calls, ns.
    pub wire_self_ns: u64,
    /// Durations of hop-running `push_qualified` calls, microseconds.
    pub hop_push_us: Vec<f64>,
}

/// Serves `chunks` in order through `door` and one stream per session,
/// adding the front door's and the streams' costs to `stats`.
pub fn inline_serve<'a>(
    chunks: impl IntoIterator<Item = &'a [u8]>,
    mut door: FrontDoor,
    config: PipelineConfig,
    stats: &mut RefStats,
) -> Result<BTreeMap<u32, RefRun>, String> {
    let mut live: BTreeMap<u32, Live> = BTreeMap::new();
    let mut err: Option<String> = None;
    let hop = config.fs.round() as usize;
    let frames0 = door.decode_stats().frames;
    for (slot, chunk) in chunks.into_iter().enumerate() {
        let t = Instant::now();
        let mut nested = Duration::ZERO;
        door.push(chunk, |session, ecg, z| {
            let start = Instant::now();
            let l = live.entry(session).or_insert_with(|| Live {
                stream: BeatStream::new(config).expect("config validated before serving"),
                run: RefRun {
                    result: WireSessionResult {
                        session,
                        beats: Vec::new(),
                        snapshot_bytes: Vec::new(),
                        states: (SignalState::Good, SignalState::Good),
                    },
                    emit_slot: Vec::new(),
                    emit_pos: Vec::new(),
                },
            });
            let before = l.stream.position();
            let res = l.stream.push_qualified(ecg, z);
            let took = start.elapsed();
            nested += took;
            match res {
                Ok(beats) => {
                    let pos = l.stream.position();
                    if pos / hop > before / hop {
                        stats.hop_push_us.push(took.as_secs_f64() * 1e6);
                    }
                    for b in beats {
                        l.run.result.beats.push(b);
                        l.run.emit_slot.push(slot);
                        l.run.emit_pos.push(pos);
                    }
                }
                Err(e) => err = Some(format!("reference session {session}: {e}")),
            }
        });
        let whole = t.elapsed();
        stats.wire_self_ns += u64::try_from(whole.saturating_sub(nested).as_nanos()).unwrap_or(0);
        if let Some(e) = err.take() {
            return Err(e);
        }
    }
    stats.frames += door.decode_stats().frames - frames0;
    Ok(live
        .into_iter()
        .map(|(session, mut l)| {
            l.run.result.snapshot_bytes = l.stream.snapshot().to_bytes();
            l.run.result.states = l.stream.channel_states();
            (session, l.run)
        })
        .collect())
}

/// `true` when every float a beat carries is finite.
pub fn beat_is_finite(q: &QualifiedBeat) -> bool {
    let r = &q.report;
    [
        r.pep_s,
        r.lvet_s,
        r.hr_bpm,
        r.dzdt_max,
        r.sv_kubicek_ml,
        r.sv_sramek_ml,
        r.co_l_per_min,
    ]
    .iter()
    .chain(q.sqi.as_ref())
    .all(|v| v.is_finite())
}

/// Running oracle and recall totals over every judged session.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Sessions judged.
    pub attempted: u64,
    /// Sessions that failed any check.
    pub failed: u64,
    /// Failures by cause.
    pub causes: BTreeMap<&'static str, u64>,
    /// Truth beats of the served sessions.
    pub truth_beats: u64,
    /// Truth beats matched by a served beat within tolerance.
    pub matched: u64,
    /// Beats served.
    pub served_beats: u64,
}

/// Outcome of a session the oracle was asked to judge.
pub enum Served<'a> {
    /// Admission was refused.
    Refused,
    /// Collected result, if any.
    Collected(Option<&'a WireSessionResult>),
}

impl Tally {
    /// Counts one failure of `cause`; returns `false` for chaining.
    pub fn fail(&mut self, cause: &'static str) -> bool {
        self.failed += 1;
        *self.causes.entry(cause).or_default() += 1;
        false
    }

    /// Judges one session against `expected`; returns `true` when it
    /// passes. `truth_r` scores recall when `score` is set.
    pub fn judge(
        &mut self,
        expected: &WireSessionResult,
        served: Served<'_>,
        truth_r: &[usize],
        score: bool,
    ) -> bool {
        self.attempted += 1;
        let got = match served {
            Served::Refused => return self.fail("refused"),
            Served::Collected(None) => return self.fail("missing"),
            Served::Collected(Some(got)) => got,
        };
        if score {
            self.served_beats += got.beats.len() as u64;
            self.truth_beats += truth_r.len() as u64;
            self.matched += matched_truth(truth_r, &got.beats);
        }
        if !got.beats.iter().all(beat_is_finite) {
            return self.fail("non_finite");
        }
        if !got.bitwise_eq(expected) {
            return self.fail("not_bitwise_equal");
        }
        true
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (k, v) in &o.causes {
            *self.causes.entry(k).or_default() += v;
        }
        self.truth_beats += o.truth_beats;
        self.matched += o.matched;
        self.served_beats += o.served_beats;
    }
}

/// Truth beats (ascending `truth_r`) with a served R within
/// [`R_MATCH_TOL_SAMPLES`]; each truth beat matches at most once.
pub fn matched_truth(truth_r: &[usize], beats: &[QualifiedBeat]) -> u64 {
    let mut used = vec![false; truth_r.len()];
    let mut n = 0;
    for b in beats {
        let r = b.report.r;
        let lo = truth_r.partition_point(|&t| t + R_MATCH_TOL_SAMPLES < r);
        if let Some(i) = (lo..truth_r.len())
            .take_while(|&i| truth_r[i] <= r + R_MATCH_TOL_SAMPLES)
            .find(|&i| !used[i])
        {
            used[i] = true;
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Grid, Mux, Plan};

    fn reference() -> (RefRun, Vec<usize>) {
        let grid = Grid::paper(3).expect("grid synthesises");
        let plans = [Plan {
            id: 7,
            rec: 0,
            phase: 0,
        }];
        let mut mux = Mux::default();
        mux.encode(&plans, &grid.recs, 125, None).expect("encodes");
        let config = PipelineConfig::paper_default(grid.fs);
        let mut runs = inline_serve(
            mux.slots.iter().map(Vec::as_slice),
            FrontDoor::new(),
            config,
            &mut RefStats::default(),
        )
        .expect("serves");
        (
            runs.remove(&7).expect("session served"),
            grid.recs[0].truth_r.clone(),
        )
    }

    #[test]
    fn oracle_passes_the_reference_and_fails_any_single_perturbed_beat() {
        let (run, truth) = reference();
        let want = run.expected(7, 0);
        assert!(want.beats.len() > 10, "reference emits beats");
        let mut tally = Tally::default();
        assert!(tally.judge(&want, Served::Collected(Some(&want)), &truth, true));
        assert!(tally.matched > 0);

        let perturbations: [fn(&mut QualifiedBeat); 4] = [
            |b| b.report.pep_s = f64::from_bits(b.report.pep_s.to_bits() + 1),
            |b| b.report.r += 1,
            |b| b.sqi = b.sqi.map(|s| s + 1e-12).or(Some(0.5)),
            |b| b.report.co_l_per_min = f64::NAN,
        ];
        for (k, perturb) in perturbations.iter().enumerate() {
            let mut got = want.clone();
            let mid = got.beats.len() / 2;
            perturb(&mut got.beats[mid]);
            let mut t = Tally::default();
            assert!(
                !t.judge(&want, Served::Collected(Some(&got)), &truth, false),
                "perturbation {k} must fail the oracle"
            );
            assert_eq!((t.attempted, t.failed), (1, 1));
        }

        let mut t = Tally::default();
        assert!(!t.judge(&want, Served::Collected(None), &truth, false));
        assert!(!t.judge(&want, Served::Refused, &truth, false));
        assert_eq!(t.causes.get("missing"), Some(&1));
        assert_eq!(t.causes.get("refused"), Some(&1));
    }

    #[test]
    fn tail_expectation_drops_exactly_the_beats_before_the_slot() {
        let (run, _) = reference();
        let n = run.result.beats.len();
        let cut = run.emit_slot[n / 2];
        let from = run.beats_through(cut);
        assert!(from > 0 && from < n);
        assert!(run.emit_slot[..from].iter().all(|&s| s <= cut));
        assert!(run.emit_slot[from..].iter().all(|&s| s > cut));
        assert_eq!(run.expected(9, from).beats.len(), n - from);
    }

    #[test]
    fn recall_matches_each_truth_beat_once() {
        let (run, truth) = reference();
        let mut doubled = run.result.beats.clone();
        doubled.extend(run.result.beats.iter().copied());
        assert_eq!(
            matched_truth(&truth, &doubled),
            matched_truth(&truth, &run.result.beats)
        );
    }
}
