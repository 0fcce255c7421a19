//! Chaos suite: the streaming stack under seeded, deterministic fault
//! injection (ISSUE 4 acceptance criteria).
//!
//! Properties, over arbitrary generated fault scenarios:
//!
//! * the pipeline never panics and never emits a non-finite
//!   hemodynamic parameter;
//! * sustained contact loss drives both channels to `Lost` within the
//!   holdover cap, and beat emission resumes shortly after contact
//!   returns;
//! * an *empty* scenario (fault injection disabled) is bit-identical
//!   to the clean path;
//! * a hard front-end fault quarantines one session without failing
//!   the scheduler tick or starving the healthy fleet.
//!
//! Every case derives from a deterministic seed (the vendored proptest
//! reports the failing case index, which reproduces it exactly).

use std::sync::{Arc, OnceLock};

use cardiotouch::config::{DelineationStrategy, PipelineConfig};
use cardiotouch::scheduler::{SessionFeed, SessionScheduler};
use cardiotouch::stream::{BeatStream, QualifiedBeat, SignalState};
use cardiotouch_physio::faults::FaultScenario;
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;
use proptest::prelude::*;

const FS: f64 = 250.0;

/// One clean 30 s template session, generated once and shared by every
/// case (generation dominates the cost of a case otherwise).
fn template() -> &'static (Vec<f64>, Vec<f64>) {
    static REC: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
    REC.get_or_init(|| {
        let population = Population::reference_five();
        let rec = PairedRecording::generate(
            &population.subjects()[0],
            Position::One,
            50_000.0,
            &Protocol::paper_default(),
            41,
        )
        .expect("valid template session");
        (rec.device_ecg().to_vec(), rec.device_z().to_vec())
    })
}

fn assert_finite(beats: &[QualifiedBeat]) -> Result<(), proptest::test_runner::TestCaseError> {
    for qb in beats {
        let r = &qb.report;
        for (name, v) in [
            ("pep_s", r.pep_s),
            ("lvet_s", r.lvet_s),
            ("hr_bpm", r.hr_bpm),
            ("dzdt_max", r.dzdt_max),
            ("sv_kubicek_ml", r.sv_kubicek_ml),
            ("sv_sramek_ml", r.sv_sramek_ml),
            ("co_l_per_min", r.co_l_per_min),
        ] {
            prop_assert!(v.is_finite(), "non-finite {name} = {v} at beat r={}", r.r);
        }
        if let Some(s) = qb.sqi {
            prop_assert!(s.is_finite(), "non-finite SQI at beat r={}", r.r);
        }
        prop_assert!(
            qb.state != SignalState::Lost,
            "beat emitted from a Lost window at r={}",
            r.r
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_scenarios_never_panic_or_emit_non_finite(
        seed in any::<u16>(),
        chunk in 16usize..400,
        strategy_idx in 0usize..DelineationStrategy::ALL.len(),
    ) {
        let (ecg, z) = template();
        let scenario = FaultScenario::random(u64::from(seed), ecg.len(), FS);
        let mut e = ecg.clone();
        let mut zz = z.clone();
        scenario
            .apply_chunk(0, &mut e, &mut zz)
            .expect("random scenarios contain no hard faults");
        // Every delineation strategy must hold the no-panic/finite
        // contract under chaos — the weighted-window prior in
        // particular carries cross-beat state that corruption must
        // never poison.
        let config = PipelineConfig::paper_default(FS)
            .with_delineation(DelineationStrategy::ALL[strategy_idx]);
        let mut stream = BeatStream::new(config).unwrap();
        let mut beats = Vec::new();
        for (ce, cz) in e.chunks(chunk).zip(zz.chunks(chunk)) {
            beats.extend(stream.push_qualified(ce, cz).expect("soft faults never error"));
        }
        assert_finite(&beats)?;
    }

    #[test]
    fn sustained_contact_loss_hits_lost_within_cap_then_recovers(
        gap_start_s in 8.0f64..14.0,
        gap_len_s in 0.5f64..3.0,
        chunk in 16usize..300,
    ) {
        let (ecg, z) = template();
        let gap_start = (gap_start_s * FS) as usize;
        let gap_len = (gap_len_s * FS) as usize;
        let gap_end = gap_start + gap_len;
        let scenario =
            FaultScenario::parse(&format!("drop@{gap_start}+{gap_len}"), FS).unwrap();
        let mut e = ecg.clone();
        let mut zz = z.clone();
        scenario.apply_chunk(0, &mut e, &mut zz).unwrap();

        let config = PipelineConfig::paper_default(FS);
        let cap = (config.holdover_cap_s * FS) as usize;
        let mut stream = BeatStream::new(config).unwrap();
        let mut beats = Vec::new();
        // feed until just past the holdover cap inside the gap …
        let probe = gap_start + cap + 2;
        let mut fed = 0;
        while fed < probe {
            let n = chunk.min(probe - fed);
            beats.extend(stream.push_qualified(&e[fed..fed + n], &zz[fed..fed + n]).unwrap());
            fed += n;
        }
        let (ecg_state, z_state) = stream.channel_states();
        prop_assert!(ecg_state == SignalState::Lost, "ECG not Lost at cap + 2 samples");
        prop_assert!(z_state == SignalState::Lost, "Z not Lost at cap + 2 samples");

        // … then the rest of the record: contact returns, state re-locks
        while fed < e.len() {
            let n = chunk.min(e.len() - fed);
            beats.extend(stream.push_qualified(&e[fed..fed + n], &zz[fed..fed + n]).unwrap());
            fed += n;
        }
        let (ecg_state, z_state) = stream.channel_states();
        prop_assert!(ecg_state == SignalState::Good, "ECG did not recover to Good");
        prop_assert!(z_state == SignalState::Good, "Z did not recover to Good");
        assert_finite(&beats)?;
        // no emitted beat overlaps the gap, and emission resumes within
        // the re-lock budget (2 s warm-restart) plus a few beats
        let resume_deadline = gap_end + (6.0 * FS) as usize;
        prop_assert!(
            beats.iter().any(|qb| qb.report.r > gap_end && qb.report.r < resume_deadline),
            "no beat within 6 s of contact restoration (gap end {gap_end})"
        );
    }

    #[test]
    fn empty_scenario_is_bit_identical_to_the_clean_path(chunk in 32usize..500) {
        let (ecg, z) = template();
        let scenario = FaultScenario::new(FS);
        let mut e = ecg.clone();
        let mut zz = z.clone();
        scenario.apply_chunk(0, &mut e, &mut zz).unwrap();
        prop_assert!(&e == ecg, "an empty scenario must not touch the ECG buffer");
        prop_assert!(&zz == z, "an empty scenario must not touch the Z buffer");

        let mut direct = BeatStream::new(PipelineConfig::paper_default(FS)).unwrap();
        let mut faultless = BeatStream::new(PipelineConfig::paper_default(FS)).unwrap();
        for (ce, cz) in e.chunks(chunk).zip(zz.chunks(chunk)) {
            let a = direct.push(ce, cz).unwrap();
            let b: Vec<_> = faultless
                .push_qualified(ce, cz)
                .unwrap()
                .into_iter()
                .map(|qb| qb.report)
                .collect();
            prop_assert!(a == b, "qualified path diverged from the plain path");
        }
    }
}

/// The committed chaos-replay corpus: every seed that ever mattered.
/// A seed the randomized properties catch failing gets appended to the
/// file (with a dated comment) and is then replayed by
/// [`pinned_seed_corpus_replays_clean`] on every test run.
const SEED_CORPUS: &str = include_str!("../conformance/fault_seed_corpus.txt");

#[test]
fn pinned_seed_corpus_replays_clean() {
    let mut replayed = 0usize;
    let mut strategies_seen = [false; DelineationStrategy::ALL.len()];
    for line in SEED_CORPUS.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let seed: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed seed-corpus line `{line}`"));
        let chunk: usize = parts.next().map_or(125, |c| {
            c.parse()
                .unwrap_or_else(|_| panic!("malformed chunk in `{line}`"))
        });
        assert!(chunk > 0, "chunk must be positive in `{line}`");
        let strategy = parts.next().map_or_else(DelineationStrategy::default, |s| {
            DelineationStrategy::parse(s).unwrap_or_else(|| panic!("unknown strategy in `{line}`"))
        });
        strategies_seen[DelineationStrategy::ALL
            .iter()
            .position(|v| *v == strategy)
            .expect("strategy is one of ALL")] = true;

        // Same body as `random_scenarios_never_panic_or_emit_non_finite`,
        // pinned to the corpus seed instead of a generated one.
        let (ecg, z) = template();
        let scenario = FaultScenario::random(seed, ecg.len(), FS);
        let mut e = ecg.clone();
        let mut zz = z.clone();
        scenario
            .apply_chunk(0, &mut e, &mut zz)
            .expect("random scenarios contain no hard faults");
        let config = PipelineConfig::paper_default(FS).with_delineation(strategy);
        let mut stream = BeatStream::new(config).unwrap();
        let mut beats = Vec::new();
        for (ce, cz) in e.chunks(chunk).zip(zz.chunks(chunk)) {
            beats.extend(
                stream
                    .push_qualified(ce, cz)
                    .expect("soft faults never error"),
            );
        }
        assert_finite(&beats)
            .unwrap_or_else(|err| panic!("seed {seed} chunk {chunk} strategy {strategy}: {err:?}"));
        replayed += 1;
    }
    assert!(
        replayed >= 10,
        "seed corpus lost entries ({replayed} replayed)"
    );
    assert!(
        strategies_seen.iter().all(|s| *s),
        "the pinned corpus must replay every delineation strategy \
         (covered: {strategies_seen:?})"
    );
}

proptest! {
    // scheduler cases drive 3 sessions × 20 hops each — keep the count low
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hard_faults_quarantine_without_failing_the_tick(
        seed in any::<u16>(),
        fail_at_s in 3usize..8,
    ) {
        let (ecg, z) = template();
        let ecg = Arc::new(ecg.clone());
        let z = Arc::new(z.clone());
        let chaos = Arc::new(FaultScenario::random(u64::from(seed), ecg.len(), FS));
        let hard = Arc::new(FaultScenario::parse(&format!("fail@{fail_at_s}s+1s"), FS).unwrap());
        let feeds = vec![
            SessionFeed::clean(Arc::clone(&ecg), Arc::clone(&z), 0).with_faults(hard),
            SessionFeed::clean(Arc::clone(&ecg), Arc::clone(&z), 977).with_faults(chaos),
            SessionFeed::clean(Arc::clone(&ecg), Arc::clone(&z), 1954),
        ];
        let mut sched = SessionScheduler::new(PipelineConfig::paper_default(FS), feeds).unwrap();
        // A faulted session never fails the tick: `run` is infallible.
        let report = sched.run(20);
        prop_assert!(report.ticks == 20, "the fleet must keep advancing");
        prop_assert!(report.session_errors >= 1, "the hard fault was never hit");
        prop_assert!(report.session_recoveries >= 1, "the quarantined session never recovered");
        prop_assert!(report.beats > 0, "healthy sessions starved");
    }
}
