//! Workload inputs: the paper's session grid, session plans and the wire
//! bytes they encode to. Everything here is a pure function of the seed
//! and runs before any timing.

use std::time::Instant;

use cardiotouch_ingest::{LossyWire, SessionEncoder};
use cardiotouch_physio::path::Position;
use cardiotouch_physio::scenario::{PairedRecording, Protocol};
use cardiotouch_physio::subject::Population;

/// Injection frequencies of the paper's protocol, hertz.
pub const FREQUENCIES_HZ: [f64; 4] = [2_000.0, 10_000.0, 50_000.0, 100_000.0];

/// One synthetic touch session with its ground truth.
#[derive(Debug)]
pub struct Recording {
    /// Device ECG channel.
    pub ecg: Vec<f64>,
    /// Device impedance channel.
    pub z: Vec<f64>,
    /// Truth R-peak indices of the beats that lie wholly inside the
    /// recording, ascending.
    pub truth_r: Vec<usize>,
}

/// The 5 subjects × 3 arm positions × 4 frequencies grid under the
/// paper's 30 s protocol, realised from `seed`.
#[derive(Debug)]
pub struct Grid {
    /// Recordings in (subject, position, frequency) order.
    pub recs: Vec<Recording>,
    /// Sample rate, hertz.
    pub fs: f64,
    /// Wall time spent synthesising, seconds.
    pub synth_s: f64,
}

impl Grid {
    /// Synthesises the grid on up to two threads.
    pub fn paper(seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        let population = Population::reference_five();
        let protocol = Protocol::paper_default();
        let cells: Vec<(usize, Position, f64)> = (0..population.subjects().len())
            .flat_map(|s| {
                Position::ALL
                    .iter()
                    .flat_map(move |&p| FREQUENCIES_HZ.iter().map(move |&f| (s, p, f)))
            })
            .collect();
        let generate = |cell: &(usize, Position, f64)| -> Result<Recording, String> {
            let (s, p, f) = *cell;
            let rec = PairedRecording::generate(&population.subjects()[s], p, f, &protocol, seed)
                .map_err(|e| format!("synthesis: {e}"))?;
            let mut truth_r: Vec<usize> = rec.truth().landmarks.iter().map(|l| l.r).collect();
            truth_r.sort_unstable();
            Ok(Recording {
                ecg: rec.device_ecg().to_vec(),
                z: rec.device_z().to_vec(),
                truth_r,
            })
        };
        let half = cells.len() / 2;
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(|| cells[half..].iter().map(generate).collect::<Vec<_>>());
            let mine: Vec<_> = cells[..half].iter().map(generate).collect();
            (mine, other.join().expect("synthesis thread panicked"))
        });
        let recs = a.into_iter().chain(b).collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            recs,
            fs: protocol.fs,
            synth_s: t.elapsed().as_secs_f64(),
        })
    }
}

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Mixes a run seed with a stream label into an independent seed.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    SplitMix(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// One wire session of a wave: which recording it replays and in which
/// mux slot its first frame goes.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Wire session id, unique within a run.
    pub id: u32,
    /// Index into [`Grid::recs`].
    pub rec: usize,
    /// Mux slot of the session's first frame.
    pub phase: usize,
}

/// Frame-level link faults: drop and single-bit-flip probabilities.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Seed of every session's fault stream.
    pub seed: u64,
    /// Whole-frame drop probability.
    pub drop: f64,
    /// Single-bit corruption probability of a delivered frame.
    pub corrupt: f64,
}

/// Encoded wire bytes of one wave: `slots[s]` holds one frame of every
/// session live in slot `s`, in plan order.
#[derive(Debug, Default)]
pub struct Mux {
    /// Per-slot byte buffers.
    pub slots: Vec<Vec<u8>>,
    /// Frames the encoders produced (before the link).
    pub frames_sent: u64,
    /// Encoding time, seconds.
    pub encode_s: f64,
}

impl Mux {
    /// Encodes `plans` into per-slot buffers, reusing the existing
    /// allocations. With a `link`, every session sends through its own
    /// seeded [`LossyWire`].
    pub fn encode(
        &mut self,
        plans: &[Plan],
        recs: &[Recording],
        frame_samples: usize,
        link: Option<Link>,
    ) -> Result<(), String> {
        let t = Instant::now();
        let frames = |p: &Plan| recs[p.rec].ecg.len() / frame_samples;
        let n_slots = plans.iter().map(|p| p.phase + frames(p)).max().unwrap_or(0);
        self.slots.resize_with(n_slots, Vec::new);
        self.slots.truncate(n_slots);
        self.slots.iter_mut().for_each(Vec::clear);
        self.frames_sent = 0;
        let mut encoders: Vec<SessionEncoder> =
            plans.iter().map(|p| SessionEncoder::new(p.id)).collect();
        let mut wires: Vec<LossyWire> = link.map_or_else(Vec::new, |l| {
            plans
                .iter()
                .map(|p| LossyWire::new(sub_seed(l.seed, u64::from(p.id)), l.drop, l.corrupt))
                .collect()
        });
        let mut scratch = Vec::new();
        for (s, buf) in self.slots.iter_mut().enumerate() {
            for (i, p) in plans.iter().enumerate() {
                if s < p.phase || s >= p.phase + frames(p) {
                    continue;
                }
                let off = (s - p.phase) * frame_samples;
                let rec = &recs[p.rec];
                let (e, z) = (
                    &rec.ecg[off..off + frame_samples],
                    &rec.z[off..off + frame_samples],
                );
                self.frames_sent += 1;
                if wires.is_empty() {
                    encoders[i].push_frame(e, z, buf)
                } else {
                    scratch.clear();
                    let r = encoders[i].push_frame(e, z, &mut scratch);
                    wires[i].transmit(&scratch, buf);
                    r
                }
                .map_err(|e| format!("wire encode: {e}"))?;
            }
        }
        self.encode_s = t.elapsed().as_secs_f64();
        Ok(())
    }
}
