//! Property-based tests over the ingest wire format, decoder, log and
//! reassembler: round-trip identity for arbitrary `f64` bit patterns,
//! and never-panics / bounded-loss behaviour on truncated, bit-flipped
//! and garbage-prefixed streams, checkpoint stores included.

use cardiotouch_ingest::checkpoint::{
    decode_checkpoint, encode_checkpoint, recover_latest, Checkpoint, CheckpointStore,
    SessionCheckpoint, CHECKPOINT_MAGIC,
};
use cardiotouch_ingest::frame::MAX_FRAME_LEN;
use cardiotouch_ingest::log::LOG_MAGIC;
use cardiotouch_ingest::segment::{LogPosition, SegmentPolicy, SegmentedLog};
use cardiotouch_ingest::{
    encode_frame, Assembler, FrameView, IngestLog, LogReader, LossyWire, SessionEncoder,
    SessionResume, WireDecoder, HEADER_LEN,
};
use proptest::prelude::*;

/// Encodes `n` frames of `len` deterministic samples for one session,
/// returning the wire bytes and each frame's start offset.
fn encode_wire(session: u32, n: usize, len: usize) -> (Vec<u8>, Vec<usize>) {
    let mut enc = SessionEncoder::new(session);
    let mut out = Vec::new();
    let mut starts = Vec::new();
    for seq in 0..n {
        starts.push(out.len());
        let ecg: Vec<f64> = (0..len)
            .map(|i| (seq * 131 + i) as f64 * 0.5 - 3.0)
            .collect();
        let z: Vec<f64> = (0..len).map(|i| 420.0 + (seq + i) as f64 * 0.25).collect();
        enc.push_frame(&ecg, &z, &mut out).expect("encode");
    }
    (out, starts)
}

/// Pushes enough zero bytes to complete (and so CRC-fail) any pending
/// plausible-prefix the decoder may be buffering — a bit flip in the
/// `n_samples` field can otherwise stall frames behind an `Incomplete`
/// that never resolves. Zero bytes can never start a frame (no magic),
/// so everything buffered gets adjudicated.
fn flush(dec: &mut WireDecoder, seqs: &mut Vec<u16>) {
    let zeros = vec![0u8; MAX_FRAME_LEN];
    dec.push(&zeros, |f| seqs.push(f.seq()));
}

/// A checkpoint whose every field derives from `bytes`: one session
/// per 7-byte chunk, with parked slots and a snapshot cut from it.
fn checkpoint_from(tag: u64, bytes: &[u8]) -> Checkpoint {
    Checkpoint {
        watermark: LogPosition {
            segment: tag,
            offset: bytes.len(),
            chain: 0xC0DE ^ tag as u16,
            frames: tag * 7,
        },
        sessions: bytes
            .chunks(7)
            .enumerate()
            .map(|(i, c)| SessionCheckpoint {
                session: i as u32 * 256 + u32::from(c[0]),
                resume: SessionResume {
                    started: c[0] & 1 == 1,
                    next_seq: u16::from(c[0]) * 257,
                    last_n: 125,
                    parked: c
                        .iter()
                        .map(|&b| (b % 3 == 0).then(|| vec![b; usize::from(b % 5)]))
                        .collect(),
                },
                snapshot: c.to_vec(),
            })
            .collect(),
    }
}

/// Flips one bit of `data` per entry of `flips` (bit index modulo the
/// length); a no-op on empty data.
fn flip_bits(data: &mut [u8], flips: &[u32]) {
    let bits = data.len() * 8;
    if bits == 0 {
        return;
    }
    for &f in flips {
        let bit = f as usize % bits;
        data[bit / 8] ^= 1 << (bit % 8);
    }
}

proptest! {
    #[test]
    fn frame_round_trips_any_bit_patterns(
        session in any::<u32>(),
        seq in any::<u16>(),
        ecg_bits in prop::collection::vec(any::<u64>(), 0..200),
        z_bits in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let n = ecg_bits.len().min(z_bits.len());
        let ecg: Vec<f64> = ecg_bits[..n].iter().map(|&b| f64::from_bits(b)).collect();
        let z: Vec<f64> = z_bits[..n].iter().map(|&b| f64::from_bits(b)).collect();
        let mut out = Vec::new();
        let written = encode_frame(session, seq, &ecg, &z, &mut out).expect("encode");
        prop_assert_eq!(written, out.len());
        let (frame, used) = FrameView::parse(&out).expect("parse");
        prop_assert_eq!(used, out.len());
        prop_assert_eq!(frame.session(), session);
        prop_assert_eq!(frame.seq(), seq);
        prop_assert_eq!(frame.n_samples(), n);
        let (mut de, mut dz) = (Vec::new(), Vec::new());
        frame.copy_samples(&mut de, &mut dz);
        // bitwise, so NaN payloads and negative zero survive the wire
        prop_assert_eq!(
            de.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ecg.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            dz.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_bit_flips_never_pass_full_frame_crc(
        len in 1usize..32,
        flip in any::<u32>(),
    ) {
        let (wire, _) = encode_wire(7, 1, len);
        let bit = (flip as usize) % (wire.len() * 8);
        let mut bad = wire.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        // CRC-16 detects every single-bit error, so the only way a
        // flipped buffer can still parse is a shorter reinterpretation
        // (a flip shrinking `n_samples`), never the full frame.
        match FrameView::parse(&bad) {
            Err(_) => {}
            Ok((_, used)) => prop_assert!(used < wire.len()),
        }
    }

    #[test]
    fn decoder_conserves_every_byte_of_garbage(
        data in prop::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..97,
    ) {
        let mut dec = WireDecoder::new();
        let mut frames = 0u64;
        for piece in data.chunks(chunk) {
            dec.push(piece, |_| frames += 1);
        }
        // emitted + skipped + still-buffered must account for every
        // input byte, whatever the input is — and never panic
        let s = dec.stats();
        prop_assert_eq!(s.frames, frames);
        prop_assert_eq!(s.bytes + s.bytes_skipped + dec.buffered() as u64, data.len() as u64);
    }

    #[test]
    fn decoder_loses_at_most_the_bit_flipped_frame(
        n in 2usize..10,
        len in 1usize..16,
        flip in any::<u32>(),
    ) {
        let (mut wire, starts) = encode_wire(1, n, len);
        let bit = (flip as usize) % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        let hit = starts.iter().rposition(|&s| s <= bit / 8).expect("starts[0] is 0");
        let mut seqs = Vec::new();
        let mut dec = WireDecoder::new();
        dec.push(&wire, |f| seqs.push(f.seq()));
        flush(&mut dec, &mut seqs);
        let want: Vec<u16> = (0..n as u16).filter(|&s| usize::from(s) != hit).collect();
        prop_assert_eq!(seqs, want);
        // one resync episode for the corruption, at most one more for
        // the zero-byte flush tail
        let s = dec.stats();
        prop_assert!(s.resyncs >= 1 && s.resyncs <= 2, "resyncs {}", s.resyncs);
        prop_assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn garbage_prefix_and_truncated_tail_lose_only_the_cut_frame(
        junk in prop::collection::vec(any::<u8>(), 0..64),
        n in 2usize..10,
        len in 1usize..16,
        cut in 1usize..32,
    ) {
        let (wire, _) = encode_wire(3, n, len);
        let frame_len = HEADER_LEN + len * 16 + 2;
        let cut = cut.min(frame_len - 1); // truncate into the final frame
        let mut stream = junk;
        stream.extend_from_slice(&wire[..wire.len() - cut]);
        let mut seqs = Vec::new();
        let mut dec = WireDecoder::new();
        for piece in stream.chunks(53) {
            dec.push(piece, |f| seqs.push(f.seq()));
        }
        flush(&mut dec, &mut seqs);
        // every intact frame survives, in order (match by subsequence:
        // arbitrary junk could in principle CRC-collide into a bogus
        // extra frame, which would not be a decoder defect)
        let mut it = seqs.iter();
        for want in 0..n as u16 - 1 {
            prop_assert!(
                it.any(|&s| s == want),
                "frame {} lost to prefix junk or tail cut",
                want
            );
        }
    }

    #[test]
    fn lossy_wire_is_deterministic_and_accounted(
        seed in any::<u16>(),
        n in 1usize..40,
        drop_pct in 0usize..40,
        corrupt_pct in 0usize..40,
    ) {
        let (dp, cp) = (drop_pct as f64 / 100.0, corrupt_pct as f64 / 100.0);
        let (clean, starts) = encode_wire(9, n, 8);
        let frame_len = clean.len() / n;
        let run = || {
            let mut link = LossyWire::new(u64::from(seed), dp, cp);
            let mut out = Vec::new();
            for &s in &starts {
                link.transmit(&clean[s..s + frame_len], &mut out);
            }
            (out, link.delivered(), link.dropped(), link.corrupted())
        };
        let (out, delivered, dropped, corrupted) = run();
        prop_assert_eq!(run(), (out.clone(), delivered, dropped, corrupted));
        prop_assert_eq!(delivered + dropped, n as u64);
        // every corrupted frame fails CRC; every survivor is genuine
        let mut seqs = Vec::new();
        let mut dec = WireDecoder::new();
        dec.push(&out, |f| seqs.push(f.seq()));
        flush(&mut dec, &mut seqs);
        prop_assert_eq!(dec.stats().frames, delivered - corrupted);
        prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "out-of-order survivors");
    }

    #[test]
    fn log_round_trips_and_any_cut_recovers_a_prefix(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..12),
        cut in any::<u16>(),
    ) {
        let mut log = IngestLog::new();
        for f in &frames {
            log.append(f);
        }
        prop_assert_eq!(log.frames(), frames.len() as u64);
        let bytes = log.as_bytes();
        let mut r = LogReader::new(bytes).expect("header");
        let got: Vec<Vec<u8>> = r.by_ref().map(<[u8]>::to_vec).collect();
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(r.error(), None);
        prop_assert_eq!(r.valid_prefix_len(), bytes.len());
        // a crash can cut the log anywhere; the reader must yield a
        // bitwise prefix of what was appended and nothing else
        let keep = LOG_MAGIC.len() + usize::from(cut) % (bytes.len() - LOG_MAGIC.len() + 1);
        let mut r2 = LogReader::new(&bytes[..keep]).expect("header survives any cut past it");
        let got2: Vec<Vec<u8>> = r2.by_ref().map(<[u8]>::to_vec).collect();
        prop_assert_eq!(got2.as_slice(), &frames[..got2.len()]);
        prop_assert!(r2.valid_prefix_len() <= keep);
    }

    #[test]
    fn log_byte_flip_truncates_to_a_clean_prefix(
        n in 1usize..10,
        flip in any::<u32>(),
        mask in 1u8..=255,
    ) {
        let mut log = IngestLog::new();
        let mut frames = Vec::new();
        for seq in 0..n {
            let (w, _) = encode_wire(2, 1, 3 + seq);
            log.append(&w);
            frames.push(w);
        }
        let mut bytes = log.into_bytes();
        let idx = LOG_MAGIC.len() + (flip as usize) % (bytes.len() - LOG_MAGIC.len());
        bytes[idx] ^= mask;
        let mut r = LogReader::new(&bytes).expect("magic untouched");
        let got: Vec<Vec<u8>> = r.by_ref().map(<[u8]>::to_vec).collect();
        // the chain CRC stops the read at (or before) the flipped
        // entry; everything yielded is still bitwise trustworthy
        prop_assert!(got.len() < n);
        prop_assert_eq!(got.as_slice(), &frames[..got.len()]);
        prop_assert!(r.error().is_some());
    }

    #[test]
    fn assembler_restores_an_adjacent_swap_bitwise(
        session in any::<u32>(),
        start_seq in any::<u16>(),
        n in 3usize..20,
        swap in any::<u32>(),
        salt in any::<u64>(),
    ) {
        // arbitrary payload bit patterns, delivered with one adjacent
        // pair swapped (never the first frame: the first arrival
        // anchors the session's sequence origin)
        let len = 4usize;
        let mut enc = SessionEncoder::with_start_seq(session, start_seq);
        let mut wire = Vec::new();
        let mut starts = Vec::new();
        let mut want_bits: Vec<u64> = Vec::new();
        for seq in 0..n as u64 {
            let ecg: Vec<f64> = (0..len)
                .map(|i| f64::from_bits(salt.wrapping_mul(seq + 1).wrapping_add(i as u64)))
                .collect();
            let z: Vec<f64> = ecg.iter().map(|v| f64::from_bits(v.to_bits() ^ 0x5A5A)).collect();
            want_bits.extend(ecg.iter().chain(&z).map(|v| v.to_bits()));
            starts.push(wire.len());
            enc.push_frame(&ecg, &z, &mut wire).expect("encode");
        }
        starts.push(wire.len());
        let s = 1 + (swap as usize) % (n - 2);
        let mut order: Vec<usize> = (0..n).collect();
        order.swap(s, s + 1);
        let mut asm = Assembler::new();
        let mut got_bits: Vec<u64> = Vec::new();
        for &idx in &order {
            let (frame, _) = FrameView::parse(&wire[starts[idx]..starts[idx + 1]]).expect("parse");
            asm.accept(&frame, |_, ecg, z| {
                got_bits.extend(ecg.iter().chain(z).map(|v| v.to_bits()));
            });
        }
        prop_assert_eq!(got_bits, want_bits);
        let st = asm.stats();
        prop_assert_eq!(
            (st.delivered, st.reordered, st.dropped, st.filled_samples),
            (n as u64, 1, 0, 0)
        );
    }

    #[test]
    fn segmented_log_any_cut_recovers_a_prefix_across_boundaries(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 1..24),
        max_frames in 1u64..5,
        cut in any::<u32>(),
    ) {
        let policy = SegmentPolicy { max_bytes: 4096, max_frames };
        let mut log = SegmentedLog::new(policy);
        for f in &frames {
            log.append(f);
        }
        let mut parts: Vec<(u64, Vec<u8>)> = log
            .segments()
            .map(|s| (s.id(), s.bytes().to_vec()))
            .collect();
        // A crash can cut the active segment anywhere past its header;
        // whatever survives must replay as a bitwise prefix.
        let tail = parts.last_mut().expect("non-empty");
        let span = tail.1.len() - LOG_MAGIC.len();
        let keep = LOG_MAGIC.len() + (cut as usize) % (span + 1);
        tail.1.truncate(keep);
        let rebuilt = SegmentedLog::from_segments(policy, &parts).expect("rebuild");
        let mut got = Vec::new();
        rebuilt
            .replay_from(&rebuilt.start_position(), |f| got.push(f.to_vec()))
            .expect("replay");
        prop_assert_eq!(got.as_slice(), &frames[..got.len()]);
        // A cut only ever hits the active segment, so at most one
        // segment's worth of frames is lost; earlier segments survive
        // untouched by construction.
        prop_assert!((frames.len() - got.len()) as u64 <= max_frames);
    }

    #[test]
    fn compaction_never_drops_entries_past_the_watermark(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 2..24),
        max_frames in 1u64..5,
        mark_at in any::<u32>(),
    ) {
        let policy = SegmentPolicy { max_bytes: 4096, max_frames };
        let mut log = SegmentedLog::new(policy);
        let k = (mark_at as usize) % frames.len();
        for f in &frames[..k] {
            log.append(f);
        }
        let mark = log.position();
        for f in &frames[k..] {
            log.append(f);
        }
        log.compact(&mark);
        // Everything past the watermark is still replayable, bitwise.
        let mut got = Vec::new();
        let replay = log.replay_from(&mark, |f| got.push(f.to_vec())).expect("replay");
        prop_assert_eq!(replay.frames as usize, frames.len() - k);
        prop_assert_eq!(got.as_slice(), &frames[k..]);
    }

    #[test]
    fn checkpoint_plus_suffix_equals_full_replay(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 2..24),
        max_frames in 1u64..5,
        mark_at in any::<u32>(),
        cut in any::<u16>(),
    ) {
        let policy = SegmentPolicy { max_bytes: 4096, max_frames };
        let mut log = SegmentedLog::new(policy);
        let k = (mark_at as usize) % frames.len();
        let mut covered: Vec<Vec<u8>> = Vec::new();
        for f in &frames[..k] {
            log.append(f);
            covered.push(f.clone());
        }
        // Seal a checkpoint at the watermark (sessions empty: this
        // property is about the log algebra, not engine state).
        let mut store = CheckpointStore::new();
        store.append(&Checkpoint { watermark: log.position(), sessions: Vec::new() });
        for f in &frames[k..] {
            log.append(f);
        }
        // Recover the checkpoint from store bytes cut anywhere in the
        // final append's tail window (the fsynced prefix survives).
        let bytes = store.as_bytes();
        let keep = bytes.len() - (cut as usize) % 3;
        let recovered = recover_latest(&bytes[..keep]).expect("store readable");
        let (watermark, covered_used) = match recovered {
            Some(r) => (r.checkpoint.watermark, covered),
            // Cut destroyed the only checkpoint: cold start from the
            // log head, nothing covered.
            None => (log.start_position(), Vec::new()),
        };
        let mut suffix = Vec::new();
        log.replay_from(&watermark, |f| suffix.push(f.to_vec())).expect("replay");
        let mut recovered_stream = covered_used;
        recovered_stream.extend(suffix);
        // replay(checkpoint + suffix) == replay(full log), bitwise.
        prop_assert_eq!(recovered_stream, frames);
    }

    #[test]
    fn checkpoint_decoding_never_panics_on_untrusted_bytes(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..5),
        cut in any::<u32>(),
        flips in prop::collection::vec(any::<u32>(), 1..12),
        garbage in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut store = CheckpointStore::new();
        for (i, p) in payloads.iter().enumerate() {
            store.append(&checkpoint_from(i as u64, p));
        }
        let bytes = store.as_bytes();
        let truncated = &bytes[..cut as usize % (bytes.len() + 1)];
        let mut flipped = bytes.to_vec();
        flip_bits(&mut flipped, &flips);
        let mut magic_then_garbage = CHECKPOINT_MAGIC.to_vec();
        magic_then_garbage.extend_from_slice(&garbage);
        let payload = encode_checkpoint(&checkpoint_from(9, &payloads[0]));
        let mut flipped_payload = payload.clone();
        flip_bits(&mut flipped_payload, &flips);
        let cut_payload = &payload[..cut as usize % (payload.len() + 1)];

        for data in [
            truncated,
            &flipped[..],
            &garbage[..],
            &magic_then_garbage[..],
            &flipped_payload[..],
            cut_payload,
        ] {
            let _ = decode_checkpoint(data);
            let newest = recover_latest(data);
            // Reopening agrees with recovery and keeps a byte prefix.
            match CheckpointStore::from_valid_prefix(data) {
                Ok((reopened, reopened_newest)) => {
                    prop_assert_eq!(Ok(reopened_newest), newest);
                    if !data.is_empty() {
                        prop_assert!(data.starts_with(reopened.as_bytes()));
                    }
                }
                Err(e) => prop_assert_eq!(Err(e), newest),
            }
        }
    }

    #[test]
    fn bit_flipped_store_recovers_only_appended_checkpoints(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..5),
        flips in prop::collection::vec(any::<u32>(), 1..4),
    ) {
        let appended: Vec<Checkpoint> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| checkpoint_from(i as u64, p))
            .collect();
        let mut store = CheckpointStore::new();
        for c in &appended {
            store.append(c);
        }
        let mut flipped = store.as_bytes().to_vec();
        flip_bits(&mut flipped, &flips);
        if let Ok(Some(r)) = recover_latest(&flipped) {
            prop_assert!(appended.contains(&r.checkpoint));
            prop_assert_eq!(appended.get(r.index as usize), Some(&r.checkpoint));
        }
    }
}
