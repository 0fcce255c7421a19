//! Property: migrating a [`BeatStream`] through the serialized snapshot
//! codec at any hop boundary is invisible. For a random recording seed,
//! random split hop, random push chunking, a random soft-fault
//! scenario and a random [`DelineationStrategy`], `snapshot → to_bytes
//! → from_bytes → restore` must resume bitwise identical to the stream
//! that never moved — every emitted [`QualifiedBeat`] (f64 fields
//! compared as raw bits), the cursor, the ladder states and the final
//! serialized state itself. Ranging over strategies proves the
//! per-strategy delineator state (the weighted-window B prior's EMA)
//! survives the codec at any split point, not just the hop the 13-case
//! corpus happens to exercise.
//!
//! This is the crash-recovery/live-migration guarantee the fleet layer
//! ([`cardiotouch::fleet`]) relies on, checked over a much wider input
//! space than the 13-case conformance corpus.
//!
//! The second property covers the other side of the codec: snapshot
//! bytes arrive from disk and from other shards, so they are untrusted.
//! Truncated, bit-flipped and garbage bytes may be rejected or accepted,
//! but `from_bytes → restore → push` must never panic.

use std::sync::{Arc, OnceLock};

use cardiotouch::config::{DelineationStrategy, PipelineConfig};
use cardiotouch::snapshot::BeatStreamSnapshot;
use cardiotouch::stream::{BeatStream, QualifiedBeat};
use cardiotouch_physio::faults::FaultScenario;
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;
use proptest::prelude::*;

const FS: f64 = 250.0;

type Channels = (Arc<Vec<f64>>, Arc<Vec<f64>>);

/// One clean 30 s paper-protocol recording per seed, cached: recording
/// synthesis dominates the property's runtime and proptest revisits
/// seeds while shrinking.
fn recording(seed: u64) -> Channels {
    static CACHE: OnceLock<std::sync::Mutex<std::collections::HashMap<u64, Channels>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()));
    let mut map = cache.lock().unwrap();
    map.entry(seed)
        .or_insert_with(|| {
            let population = Population::reference_five();
            let subject = &population.subjects()[seed as usize % population.subjects().len()];
            let rec = PairedRecording::generate(
                subject,
                Position::One,
                50_000.0,
                &Protocol::paper_default(),
                seed,
            )
            .unwrap();
            (
                Arc::new(rec.device_ecg().to_vec()),
                Arc::new(rec.device_z().to_vec()),
            )
        })
        .clone()
}

/// Bitwise equality for emissions: exact on indices/flags/states, raw
/// f64 bits on the hemodynamic parameters (`==` would conflate -0.0
/// with 0.0 and reject NaN; the guarantee here is byte identity).
fn bitwise_eq(a: &QualifiedBeat, b: &QualifiedBeat) -> bool {
    let (ra, rb) = (&a.report, &b.report);
    ra.r == rb.r
        && ra.b == rb.b
        && ra.c == rb.c
        && ra.x == rb.x
        && ra.pep_s.to_bits() == rb.pep_s.to_bits()
        && ra.lvet_s.to_bits() == rb.lvet_s.to_bits()
        && ra.hr_bpm.to_bits() == rb.hr_bpm.to_bits()
        && ra.dzdt_max.to_bits() == rb.dzdt_max.to_bits()
        && ra.sv_kubicek_ml.to_bits() == rb.sv_kubicek_ml.to_bits()
        && ra.sv_sramek_ml.to_bits() == rb.sv_sramek_ml.to_bits()
        && ra.co_l_per_min.to_bits() == rb.co_l_per_min.to_bits()
        && ra.physiological == rb.physiological
        && a.state == b.state
        && a.sqi.map(f64::to_bits) == b.sqi.map(f64::to_bits)
}

/// Pushes `[lo, hi)` of the channels into `stream` in `chunk`-sized
/// pieces, collecting every emission.
fn push_range(
    stream: &mut BeatStream,
    ecg: &[f64],
    z: &[f64],
    lo: usize,
    hi: usize,
    chunk: usize,
) -> Vec<QualifiedBeat> {
    let mut out = Vec::new();
    for (e, zc) in ecg[lo..hi].chunks(chunk).zip(z[lo..hi].chunks(chunk)) {
        out.extend(stream.push_qualified(e, zc).unwrap());
    }
    out
}

proptest! {
    // 16 cases: enough draws that all four strategies are sampled with
    // overwhelming probability while the property stays fast (the
    // recording cache absorbs the synthesis cost).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_restore_at_any_hop_is_bitwise_invisible(
        rec_seed in 0u64..4,
        fault_seed in any::<u64>(),
        split_hop in 1usize..29,
        chunk in 16usize..=500,
        strategy_idx in 0usize..DelineationStrategy::ALL.len(),
    ) {
        let (ecg, z) = recording(rec_seed);
        let (mut ecg, mut z) = (ecg.to_vec(), z.to_vec());
        // ~3/4 of cases run faulted; random() draws soft faults only,
        // so apply_chunk cannot raise a HardFault here.
        if fault_seed % 4 != 0 {
            FaultScenario::random(fault_seed, ecg.len(), FS)
                .apply_chunk(0, &mut ecg, &mut z)
                .unwrap();
        }
        let hop = FS as usize;
        let split = split_hop * hop;
        prop_assume!(split < ecg.len());
        let config = PipelineConfig::paper_default(FS)
            .with_delineation(DelineationStrategy::ALL[strategy_idx]);

        // Reference: one stream, never interrupted.
        let mut reference = BeatStream::new(config).unwrap();
        let mut expected = push_range(&mut reference, &ecg, &z, 0, split, chunk);
        expected.extend(push_range(&mut reference, &ecg, &z, split, ecg.len(), chunk));

        // Migrated: serialize at the split, drop the original, restore
        // from bytes — the crash-recovery path, not a memcpy.
        let mut first = BeatStream::new(config).unwrap();
        let mut got = push_range(&mut first, &ecg, &z, 0, split, chunk);
        let bytes = first.snapshot().to_bytes();
        drop(first);
        let snapshot = BeatStreamSnapshot::from_bytes(&bytes).unwrap();
        let mut resumed = BeatStream::restore(config, &snapshot).unwrap();
        got.extend(push_range(&mut resumed, &ecg, &z, split, ecg.len(), chunk));

        prop_assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert!(bitwise_eq(g, e), "beat {} diverges: {:?} vs {:?}", i, g, e);
        }
        prop_assert_eq!(resumed.position(), reference.position());
        prop_assert_eq!(resumed.channel_states(), reference.channel_states());
        // Strongest check: the full engine state after resumption is
        // byte-for-byte the state of the stream that never migrated.
        prop_assert_eq!(resumed.snapshot().to_bytes(), reference.snapshot().to_bytes());
    }
}

/// Serialized state of recording 0 after 12 s of clean signal: a
/// mid-session snapshot with primed filters, pending R peaks and a
/// populated delineator, so a mutation lands in live state.
fn mid_session_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (ecg, z) = recording(0);
        let mut stream = BeatStream::new(PipelineConfig::paper_default(FS)).unwrap();
        let split = 12 * FS as usize;
        push_range(&mut stream, &ecg, &z, 0, split, FS as usize);
        stream.snapshot().to_bytes()
    })
}

/// Feeds `bytes` through the whole restore path: decode, rebuild the
/// engine, then one hop of real signal. Errors anywhere are fine; the
/// property is that nothing panics.
fn decode_restore_push(bytes: &[u8]) {
    let Ok(snapshot) = BeatStreamSnapshot::from_bytes(bytes) else {
        return;
    };
    let config = PipelineConfig::paper_default(FS);
    let Ok(mut stream) = BeatStream::restore(config, &snapshot) else {
        return;
    };
    let (ecg, z) = recording(0);
    let hop = FS as usize;
    let _ = stream.push_qualified(&ecg[..hop], &z[..hop]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn untrusted_snapshot_bytes_never_panic(
        cut_frac in 0.0f64..1.0,
        flips in prop::collection::vec(any::<u64>(), 1..=8),
        garbage in prop::collection::vec(any::<u8>(), 0..=512),
    ) {
        let bytes = mid_session_bytes();

        // Truncated at an arbitrary byte.
        let cut = (cut_frac * bytes.len() as f64) as usize;
        decode_restore_push(&bytes[..cut]);

        // One to eight flipped bits anywhere in an intact snapshot.
        let mut flipped = bytes.to_vec();
        for f in &flips {
            let bit = (f % (flipped.len() as u64 * 8)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        decode_restore_push(&flipped);

        // Garbage, bare and behind a valid prefix (at least the magic
        // and version header) so the decoder reaches deeper fields.
        decode_restore_push(&garbage);
        let mut spliced = bytes[..cut.max(6)].to_vec();
        spliced.extend_from_slice(&garbage);
        decode_restore_push(&spliced);
    }
}
