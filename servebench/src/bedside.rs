//! Open-loop bedside workload (`bedside-open`).
//!
//! A generator thread sends every 0.5 s frame of every session at its
//! due time, whether or not the server keeps up. One serving thread runs
//! a [`FrontDoor`] and one [`BeatStream`] per session, exactly the calls a
//! single-threaded wire server makes. Each beat's emit latency runs from
//! the due time of the frame that completed it to the return of the
//! `push_qualified` call that emitted it, so queue wait is included.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cardiotouch::config::PipelineConfig;
use cardiotouch::stream::{BeatStream, QualifiedBeat};
use cardiotouch::wire::{FrontDoor, WireSessionResult};
use cardiotouch_ingest::encode_frame;

use crate::closed::{counters, delta, WAVE_STRIDE};
use crate::inputs::{sub_seed, Grid, SplitMix};
use crate::oracle::{RefRun, Served};
use crate::report::{hop_totals, Pass};
use crate::sys;
use crate::trace::{Tracer, NO_SESSION};

/// Shape of the open-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Concurrent sessions (lanes); each lane replays one recording after
    /// another.
    pub sessions: usize,
    /// Samples per wire frame.
    pub frame_samples: usize,
    /// Signal seconds sent per wall second.
    pub speedup: f64,
}

struct Msg {
    due: Instant,
    bytes: Vec<u8>,
}

struct Live {
    stream: BeatStream,
    beats: Vec<QualifiedBeat>,
    rec: usize,
    frames: usize,
}

fn session_of(spec: &Spec, n_recs: usize, wave: usize, lane: usize) -> (u32, usize) {
    let id = u32::try_from(wave).expect("wave count fits u32") * WAVE_STRIDE
        + u32::try_from(lane).expect("lanes fit u32");
    (id, (wave * spec.sessions + lane) % n_recs)
}

/// Serves `waves` back-to-back waves of `spec.sessions` lanes, each lane
/// starting at a seeded phase inside one 1 s hop.
pub fn run_pass(
    grid: &Grid,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    refs: &[RefRun],
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let config = PipelineConfig::paper_default(grid.fs);
    let n_recs = grid.recs.len();
    let rec_len = grid.recs[0].ecg.len();
    let frames = rec_len / spec.frame_samples;
    let frame_dt = spec.frame_samples as f64 / grid.fs;
    let wave_s = rec_len as f64 / grid.fs;
    let hop = grid.fs.round() as usize;
    let waves = ((seconds * spec.speedup / wave_s).round() as usize).max(1);
    let mut rng = SplitMix(sub_seed(seed, 0x4245_4453));
    let phases: Vec<f64> = (0..spec.sessions).map(|_| rng.unit()).collect();

    // Due times in signal seconds, sorted: (t, wave, lane, frame).
    let mut sched: Vec<(f64, usize, usize, usize)> =
        Vec::with_capacity(waves * spec.sessions * frames);
    for w in 0..waves {
        for (lane, &ph) in phases.iter().enumerate() {
            for j in 0..frames {
                sched.push((
                    w as f64 * wave_s + ph + (j + 1) as f64 * frame_dt,
                    w,
                    lane,
                    j,
                ));
            }
        }
    }
    sched.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut out = Pass {
        open_loop: true,
        ..Pass::default()
    };
    let rss0 = sys::rss_kb();
    let mut door = FrontDoor::new();
    let mut live: HashMap<u32, Live> = HashMap::with_capacity(2 * spec.sessions);
    let open = |rec: usize| -> Live {
        Live {
            stream: BeatStream::new(config).expect("config validated before serving"),
            beats: Vec::new(),
            rec,
            frames: 0,
        }
    };
    for lane in 0..spec.sessions {
        let (id, rec) = session_of(spec, n_recs, 0, lane);
        live.insert(id, open(rec));
    }

    let obs0 = counters();
    let hop0 = hop_totals();
    let pcpu0 = sys::process_cpu_s();
    let steal0 = sys::steal_ticks();
    cardiotouch_obs::set_enabled(true);
    let (tx, rx) = mpsc::channel::<Msg>();
    let t0 = Instant::now() + Duration::from_millis(20);
    let speedup = spec.speedup;
    let (recs, fsamp) = (&grid.recs, spec.frame_samples);
    let mut rss_taken = false;
    let mut err: Option<String> = None;

    let (lags, encode_s, sent) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut lags = Vec::with_capacity(sched.len());
            let mut encode = Duration::ZERO;
            let mut sent = 0u64;
            for &(t_sig, w, lane, j) in &sched {
                let (id, rec) = session_of(spec, n_recs, w, lane);
                let e = Instant::now();
                let mut bytes = Vec::with_capacity(14 + fsamp * 16);
                let off = j * fsamp;
                let r = &recs[rec];
                encode_frame(
                    id,
                    u16::try_from(j).expect("frame index fits u16"),
                    &r.ecg[off..off + fsamp],
                    &r.z[off..off + fsamp],
                    &mut bytes,
                )
                .expect("frame within size limits");
                encode += e.elapsed();
                let due = t0 + Duration::from_secs_f64(t_sig / speedup);
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    std::thread::sleep(due - now);
                }
                lags.push(due.elapsed().as_secs_f64() * 1e3);
                if tx.send(Msg { due, bytes }).is_err() {
                    break;
                }
                sent += 1;
            }
            (lags, encode.as_secs_f64(), sent)
        });

        let cpu0 = sys::thread_cpu_s();
        let start = Instant::now();
        let mut last = start;
        loop {
            let span = tracer.begin("serve.wait", NO_SESSION);
            let Ok(msg) = rx.recv() else { break };
            tracer.end(span);
            let mut closed: Option<u32> = None;
            let outer = tracer.begin("wire.push", NO_SESSION);
            door.push(&msg.bytes, |session, ecg, z| {
                let span = tracer.begin("stream.push_qualified", session);
                let l = live.entry(session).or_insert_with(|| {
                    let lane = (session % WAVE_STRIDE) as usize;
                    let wave = (session / WAVE_STRIDE) as usize;
                    open(session_of(spec, n_recs, wave, lane).1)
                });
                let before = l.stream.position();
                let start = Instant::now();
                let res = l.stream.push_qualified(ecg, z);
                let ret = Instant::now();
                tracer.end(span);
                let pos = l.stream.position();
                if pos / hop > before / hop {
                    out.push_hop_us.push((ret - start).as_secs_f64() * 1e6);
                }
                match res {
                    Ok(beats) => {
                        let lat = (ret - msg.due).as_secs_f64() * 1e3;
                        for b in beats {
                            out.latency_ms.push(lat);
                            out.delay_s.push((pos - b.report.r) as f64 / grid.fs);
                            l.beats.push(b);
                        }
                    }
                    Err(e) => err = Some(format!("session {session}: {e}")),
                }
                l.frames += 1;
                out.session_seconds += ecg.len() as f64 / grid.fs;
                if l.frames == frames {
                    closed = Some(session);
                }
            });
            tracer.end(outer);
            last = Instant::now();
            if let Some(id) = closed {
                if !rss_taken {
                    // Every lane is live and a full session deep.
                    out.rss_per_session_kb =
                        sys::rss_kb().saturating_sub(rss0) as f64 / spec.sessions as f64;
                    rss_taken = true;
                }
                let span = tracer.begin("session.close", id);
                let l = live.remove(&id).expect("closed session is live");
                let result = WireSessionResult {
                    session: id,
                    snapshot_bytes: l.stream.snapshot().to_bytes(),
                    states: l.stream.channel_states(),
                    beats: l.beats,
                };
                tracer.end(span);
                let span = tracer.begin("bench.judge", id);
                let want = refs[l.rec].expected(id, 0);
                out.tally.judge(
                    &want,
                    Served::Collected(Some(&result)),
                    &grid.recs[l.rec].truth_r,
                    true,
                );
                tracer.end(span);
            }
        }
        out.cpu_s = sys::thread_cpu_s() - cpu0;
        out.wall_s = (last - start).as_secs_f64();
        generator.join().expect("generator thread panicked")
    });
    cardiotouch_obs::set_enabled(false);
    out.process_cpu_s = sys::process_cpu_s() - pcpu0;
    let steal1 = sys::steal_ticks();
    out.steal = (steal1.0 - steal0.0, steal1.1 - steal0.1);
    let hop1 = hop_totals();
    (out.hops, out.hop_sum_us) = (hop1.0 - hop0.0, hop1.1 - hop0.1);
    out.waves = waves;
    if let Some(e) = err {
        return Err(e);
    }
    // Sessions still open (none on a complete run) never reached the
    // oracle: count them as missing.
    for (_, l) in live {
        let want = refs[l.rec].expected(u32::MAX, 0);
        out.tally.judge(&want, Served::Collected(None), &[], false);
    }
    out.obs = delta(&obs0, &counters());
    let asm = door.assembly_stats();
    out.filled_samples = asm.filled_samples;
    out.runs_dispatched = asm.delivered;
    out.lag_ms = lags;
    out.encode_s = encode_s;
    out.frames_sent = sent;
    Ok(out)
}
