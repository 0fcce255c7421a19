//! Closed-loop fleet workloads (`fleet-steady`, `ble-durable`) and the
//! crash-recovery probe every workload ends with.
//!
//! Sessions run in waves: every session of a wave is admitted with
//! `Fleet::wire_admit`, the wave's pre-encoded mux slots are pushed one
//! after another with `Fleet::wire_push` (each push returns once its runs
//! are in the shard mailboxes, so a slow shard slows the loop), and
//! `Fleet::wire_collect` ends the wave. Only the serving calls are timed;
//! encoding the next wave and judging the last one happen between waves,
//! with the obs registry disabled so they leave no counts behind.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use cardiotouch::config::PipelineConfig;
use cardiotouch::fleet::Fleet;
use cardiotouch::wire::{FrontDoor, WireSessionResult};
use cardiotouch_ingest::frame::MAX_FRAME_LEN;
use cardiotouch_ingest::{CheckpointStore, SegmentPolicy, SegmentedLog};

use crate::inputs::{sub_seed, Grid, Link, Mux, Plan, SplitMix};
use crate::oracle::{inline_serve, RefRun, RefStats, Served, Tally};
use crate::report::{hop_totals, Pass};
use crate::sys;
use crate::trace::{Tracer, NO_SESSION};

/// Segment rotation of every durable fleet.
pub const POLICY: SegmentPolicy = SegmentPolicy::DEFAULT;

/// Session ids of wave `w` are `w * WAVE_STRIDE + k`.
pub const WAVE_STRIDE: u32 = 1 << 16;

/// Recoveries per probe: at least [`MIN_RECOVERIES`], more while their
/// total stays under [`RECOVERY_BUDGET_S`], at most [`MAX_RECOVERIES`];
/// `recovery_s` is their median.
const MIN_RECOVERIES: usize = 5;
const MAX_RECOVERIES: usize = 21;
const RECOVERY_BUDGET_S: f64 = 4.0;

/// Shape of one closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Concurrent sessions per wave.
    pub sessions: usize,
    /// Samples per wire frame.
    pub frame_samples: usize,
    /// Link faults; `None` for a lossless wire.
    pub link: Option<(f64, f64)>,
    /// Durable mode (segmented log plus checkpoints).
    pub durable: bool,
    /// Fleet shards.
    pub shards: usize,
    /// Per-shard mailbox capacity.
    pub mailbox: usize,
}

impl Spec {
    /// Mux slots per second of signal.
    pub fn slots_per_s(&self, fs: f64) -> usize {
        (fs / self.frame_samples as f64).round() as usize
    }

    /// Slots between checkpoints: every 10 s of signal.
    pub fn ckpt_every(&self, fs: f64) -> usize {
        10 * self.slots_per_s(fs)
    }

    /// The link model of a run seeded `seed`.
    pub fn link_for(&self, seed: u64, wave: usize) -> Option<Link> {
        self.link.map(|(drop, corrupt)| Link {
            seed: sub_seed(seed, 0x4C49_4E4B ^ wave as u64),
            drop,
            corrupt,
        })
    }
}

/// Plans of wave `wave`: session `k` replays recording `k mod 60` and
/// starts in a seeded slot within the first 1 s hop.
pub fn plans(
    sessions: usize,
    n_recs: usize,
    slots_per_hop: usize,
    seed: u64,
    wave: usize,
) -> Vec<Plan> {
    let mut rng = SplitMix(sub_seed(seed, 0x5048_4153 ^ wave as u64));
    (0..sessions)
        .map(|k| Plan {
            id: u32::try_from(wave).expect("wave count fits u32") * WAVE_STRIDE
                + u32::try_from(k).expect("sessions fit u32"),
            rec: k % n_recs,
            phase: rng.below(slots_per_hop),
        })
        .collect()
}

/// Where each session's expected result comes from.
pub enum Refs {
    /// Lossless wire: every session replaying recording `r` must equal
    /// the inline run of recording `r` (identical payload bytes).
    PerRecording(Vec<RefRun>),
    /// Lossy wire: the wave's own mux bytes, served inline.
    PerWave,
}

impl Refs {
    /// Reference runs of every grid recording, sent as a mux of one frame
    /// per recording per slot (session id = recording index).
    pub fn per_recording(
        grid: &Grid,
        frame_samples: usize,
        config: PipelineConfig,
        stats: &mut RefStats,
    ) -> Result<Self, String> {
        let plans: Vec<Plan> = (0..grid.recs.len())
            .map(|r| Plan {
                id: u32::try_from(r).expect("grid fits u32"),
                rec: r,
                phase: 0,
            })
            .collect();
        let mut mux = Mux::default();
        mux.encode(&plans, &grid.recs, frame_samples, None)?;
        let runs = inline_serve(
            mux.slots.iter().map(Vec::as_slice),
            FrontDoor::new(),
            config,
            stats,
        )?;
        Ok(Self::PerRecording(runs.into_values().collect()))
    }
}

/// Expected run of each plan: `(plan index → run, slot offset)`. Emission
/// slot of beat `i` in the served mux is `run.emit_slot[i] + offset`.
fn expectations<'a>(
    refs: &'a Refs,
    wave_runs: &'a BTreeMap<u32, RefRun>,
    plans: &[Plan],
) -> Vec<Option<(&'a RefRun, usize)>> {
    plans
        .iter()
        .map(|p| match refs {
            Refs::PerRecording(runs) => runs.get(p.rec).map(|r| (r, p.phase)),
            Refs::PerWave => wave_runs.get(&p.id).map(|r| (r, 0)),
        })
        .collect()
}

/// Zero bytes after a lossy wave's last slot: an idle line long enough
/// that a frame whose length field took a bit flip cannot keep the
/// wave's last frames in the decoder's carry buffer past `wire_collect`.
fn idle_line() -> Vec<u8> {
    vec![0u8; MAX_FRAME_LEN + 64]
}

/// The chunks one wave pushes: its slots, plus the idle line on a lossy
/// link.
fn chunks<'a>(mux: &'a Mux, idle: Option<&'a [u8]>) -> impl Iterator<Item = &'a [u8]> {
    mux.slots.iter().map(Vec::as_slice).chain(idle)
}

fn admit(fleet: &mut Fleet, plans: &[Plan], tracer: &mut Tracer) -> BTreeSet<u32> {
    let span = tracer.begin("fleet.wire_admit", NO_SESSION);
    let refused = plans
        .iter()
        .filter(|p| fleet.wire_admit(p.id).is_err())
        .map(|p| p.id)
        .collect();
    tracer.end(span);
    refused
}

#[allow(clippy::too_many_arguments)]
fn judge_wave(
    tally: &mut Tally,
    grid: &Grid,
    plans: &[Plan],
    expect: &[Option<(&RefRun, usize)>],
    results: &[WireSessionResult],
    refused: &BTreeSet<u32>,
    tail_after: Option<usize>,
    mut on_pass: impl FnMut(&RefRun, usize),
) {
    let by_id: BTreeMap<u32, &WireSessionResult> = results.iter().map(|r| (r.session, r)).collect();
    for (p, e) in plans.iter().zip(expect) {
        let Some((run, offset)) = e else {
            // No reference at all: the session was never served inline.
            tally.attempted += 1;
            tally.fail("no_reference");
            continue;
        };
        // Beats the mux emitted through slot `slot`: the session's own
        // chunks run `offset` slots behind the mux.
        let from = tail_after.map_or(0, |slot| {
            slot.checked_sub(*offset)
                .map_or(0, |s| run.beats_through(s))
        });
        let want = run.expected(p.id, from);
        let served = if refused.contains(&p.id) {
            Served::Refused
        } else {
            Served::Collected(by_id.get(&p.id).copied())
        };
        if tally.judge(
            &want,
            served,
            &grid.recs[p.rec].truth_r,
            tail_after.is_none(),
        ) {
            on_pass(run, *offset);
        }
    }
    let planned: BTreeSet<u32> = plans.iter().map(|p| p.id).collect();
    for r in results {
        if !planned.contains(&r.session) {
            tally.fail("unexpected_session");
        }
    }
}

/// Every obs counter's current value.
pub fn counters() -> BTreeMap<String, u64> {
    cardiotouch_obs::snapshot().counters.into_iter().collect()
}

/// Counter deltas `after - before`.
pub fn delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Runs waves for at least `seconds` of timed serving.
pub fn run_pass(
    grid: &Grid,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    refs: &Refs,
    tracer: &mut Tracer,
    ref_stats: &mut RefStats,
) -> Result<Pass, String> {
    let config = PipelineConfig::paper_default(grid.fs);
    let per_hop = spec.slots_per_s(grid.fs);
    let ckpt_every = spec.ckpt_every(grid.fs);
    let idle = spec.link.map(|_| idle_line());
    let mut out = Pass {
        shards: spec.shards,
        ..Pass::default()
    };
    let mut mux = Mux::default();

    let mut plan = plans(spec.sessions, grid.recs.len(), per_hop, seed, 0);
    mux.encode(
        &plan,
        &grid.recs,
        spec.frame_samples,
        spec.link_for(seed, 0),
    )?;
    out.encode_s += mux.encode_s;
    let rss0 = sys::rss_kb();

    let mut fleet = Fleet::new(config, spec.shards, spec.mailbox).map_err(|e| e.to_string())?;
    if spec.durable {
        fleet.wire_enable_durable(POLICY);
    }
    let mut refused = admit(&mut fleet, &plan, &mut Tracer::new(false));

    cardiotouch_obs::set_enabled(false);
    let obs0 = counters();
    let hop0 = hop_totals();
    let others0 = sys::other_threads_cpu_s();
    let mut wave = 0;
    loop {
        if wave > 0 {
            if out.wall_s >= seconds {
                break;
            }
            plan = plans(spec.sessions, grid.recs.len(), per_hop, seed, wave);
            mux.encode(
                &plan,
                &grid.recs,
                spec.frame_samples,
                spec.link_for(seed, wave),
            )?;
            out.encode_s += mux.encode_s;
        }
        out.frames_sent += mux.frames_sent;

        cardiotouch_obs::set_enabled(true);
        let cpu0 = sys::process_cpu_s();
        let ctl0 = sys::thread_cpu_s();
        let steal0 = sys::steal_ticks();
        let t0 = Instant::now();
        if wave > 0 {
            refused = admit(&mut fleet, &plan, tracer);
        }
        let mut push_at: Vec<Duration> = Vec::with_capacity(mux.slots.len() + 1);
        // The closed-loop generator's lag: the gap between one serving
        // call returning and the next one starting.
        let mut returned = t0.elapsed();
        for (s, chunk) in chunks(&mux, idle.as_deref()).enumerate() {
            let start = t0.elapsed();
            push_at.push(start);
            out.lag_ms.push((start - returned).as_secs_f64() * 1e3);
            let span = tracer.begin("fleet.wire_push", NO_SESSION);
            fleet.wire_push(chunk);
            tracer.end(span);
            returned = t0.elapsed();
            out.wire_push_us
                .push((returned - start).as_secs_f64() * 1e6);
            if spec.durable && (s + 1) % ckpt_every == 0 {
                let span = tracer.begin("fleet.checkpoint", NO_SESSION);
                fleet.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
                tracer.end(span);
                returned = t0.elapsed();
            }
        }
        if wave == 0 {
            let live = (plan.len() - refused.len()).max(1);
            out.rss_per_session_kb = sys::rss_kb().saturating_sub(rss0) as f64 / live as f64;
        }
        let c = Instant::now();
        out.lag_ms
            .push((t0.elapsed() - returned).as_secs_f64() * 1e3);
        let span = tracer.begin("fleet.wire_collect", NO_SESSION);
        let results = fleet.wire_collect().map_err(|e| format!("collect: {e}"))?;
        tracer.end(span);
        let done = t0.elapsed();
        out.collect_ms.push(c.elapsed().as_secs_f64() * 1e3);
        out.wall_s += done.as_secs_f64();
        out.cpu_s += sys::process_cpu_s() - cpu0;
        out.process_cpu_s = out.cpu_s;
        out.control_cpu_s += sys::thread_cpu_s() - ctl0;
        let steal1 = sys::steal_ticks();
        out.steal.0 += steal1.0 - steal0.0;
        out.steal.1 += steal1.1 - steal0.1;
        cardiotouch_obs::set_enabled(false);

        let wave_runs = match refs {
            Refs::PerRecording(_) => BTreeMap::new(),
            Refs::PerWave => {
                let door = if spec.durable {
                    FrontDoor::with_segmented_log(POLICY)
                } else {
                    FrontDoor::new()
                };
                inline_serve(chunks(&mux, idle.as_deref()), door, config, ref_stats)?
            }
        };
        let expect = expectations(refs, &wave_runs, &plan);
        let fs = grid.fs;
        let (lat, delay) = (&mut out.latency_ms, &mut out.delay_s);
        judge_wave(
            &mut out.tally,
            grid,
            &plan,
            &expect,
            &results,
            &refused,
            None,
            |run, off| {
                for ((b, &slot), &pos) in run
                    .result
                    .beats
                    .iter()
                    .zip(&run.emit_slot)
                    .zip(&run.emit_pos)
                {
                    lat.push((done - push_at[slot + off]).as_secs_f64() * 1e3);
                    delay.push((pos - b.report.r) as f64 / fs);
                }
            },
        );
        out.session_seconds += plan
            .iter()
            .filter(|p| !refused.contains(&p.id))
            .map(|p| grid.recs[p.rec].ecg.len() as f64 / fs)
            .sum::<f64>();
        wave += 1;
    }
    out.waves = wave;
    out.obs = delta(&obs0, &counters());
    let hop1 = hop_totals();
    (out.hops, out.hop_sum_us) = (hop1.0 - hop0.0, hop1.1 - hop0.1);
    out.other_cpu_s = sys::other_threads_cpu_s() - others0;
    let (_, asm) = fleet.wire_stats();
    out.filled_samples = asm.filled_samples;
    out.runs_dispatched = asm.delivered;
    fleet.shutdown();
    Ok(out)
}

/// What the crash-recovery probe measured.
#[derive(Debug, Default)]
pub struct ProbeOut {
    /// Each recovery's wall time, seconds.
    pub recovery_s: Vec<f64>,
    /// Log frames past the recovered watermark.
    pub suffix_frames: u64,
    /// Bytes appended to the ingest log before the crash.
    pub log_appended_bytes: u64,
    /// Log bytes still retained at the crash.
    pub log_retained_bytes: u64,
    /// Segments compaction retired before the crash.
    pub log_segments_retired: u64,
    /// Checkpoint-store bytes at the crash.
    pub ckpt_store_bytes: u64,
    /// Mean snapshot size of the recovered sessions' final state.
    pub snapshot_bytes_per_session: f64,
    /// Durations of the wave's 10 s checkpoints (not the post-recovery
    /// ones), milliseconds.
    pub ckpt_ms: Vec<f64>,
    /// Oracle verdicts on the recovered sessions.
    pub tally: Tally,
}

/// Serves one durable wave of `spec`'s shape, crashes 2.5 s of signal
/// after the second checkpoint, recovers several times from the
/// durable artifacts, resumes the last recovered fleet with an
/// at-least-once resend of the slots the crash may have cut, and checks
/// every session against the uninterrupted reference: beats emitted
/// after the recovered checkpoint and the final state, bitwise.
pub fn crash_probe(
    grid: &Grid,
    spec: &Spec,
    seed: u64,
    wave: usize,
    refs: &Refs,
) -> Result<ProbeOut, String> {
    let config = PipelineConfig::paper_default(grid.fs);
    let per_hop = spec.slots_per_s(grid.fs);
    let ckpt_every = spec.ckpt_every(grid.fs);
    // Crash 2.5 s of signal after the second checkpoint, so compaction
    // has already retired segments and recovery starts from checkpoint 2.
    let crash_slot = 2 * ckpt_every + ckpt_every / 4 - 1;
    let idle = spec.link.map(|_| idle_line());
    let plan = plans(spec.sessions, grid.recs.len(), per_hop, seed, wave);
    let mut mux = Mux::default();
    mux.encode(
        &plan,
        &grid.recs,
        spec.frame_samples,
        spec.link_for(seed, wave),
    )?;
    let all: Vec<&[u8]> = chunks(&mux, idle.as_deref()).collect();
    if crash_slot + 1 >= mux.slots.len() {
        return Err("recordings too short for the crash probe".into());
    }
    let mut ckpt_ms = Vec::new();
    let mut checkpoint = |fleet: &mut Fleet, s: usize| -> Result<(), String> {
        if (s + 1) % ckpt_every == 0 {
            let t = Instant::now();
            fleet.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
            ckpt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    };

    let mut fleet = Fleet::new(config, spec.shards, spec.mailbox).map_err(|e| e.to_string())?;
    fleet.wire_enable_durable(POLICY);
    let refused = admit(&mut fleet, &plan, &mut Tracer::new(false));
    for (s, chunk) in all.iter().enumerate().take(crash_slot + 1) {
        fleet.wire_push(chunk);
        checkpoint(&mut fleet, s)?;
    }
    // The process dies: only the checkpoint store and the log segments
    // survive.
    let store_bytes = fleet.checkpoint_store_bytes().unwrap_or_default().to_vec();
    let log = fleet
        .wire_segmented_log()
        .ok_or("durable fleet has no log")?;
    let segments: Vec<(u64, Vec<u8>)> = log
        .segments()
        .map(|s| (s.id(), s.bytes().to_vec()))
        .collect();
    let mut out = ProbeOut {
        log_appended_bytes: log.appended_bytes(),
        log_retained_bytes: log.total_bytes() as u64,
        log_segments_retired: log.retired(),
        ckpt_store_bytes: store_bytes.len() as u64,
        ..ProbeOut::default()
    };
    fleet.shutdown();

    let mut recovered: Option<Fleet> = None;
    for k in 0..MAX_RECOVERIES {
        let spent: f64 = out.recovery_s.iter().sum();
        if k >= MIN_RECOVERIES && spent >= RECOVERY_BUDGET_S {
            break;
        }
        if let Some(f) = recovered.take() {
            f.shutdown();
        }
        let t = Instant::now();
        let (store, latest) =
            CheckpointStore::from_valid_prefix(&store_bytes).map_err(|e| format!("store: {e}"))?;
        let latest = latest.ok_or("no checkpoint survived the crash")?;
        let log =
            SegmentedLog::from_segments(POLICY, &segments).map_err(|e| format!("log: {e}"))?;
        let mut f = Fleet::recover(
            config,
            spec.shards,
            spec.mailbox,
            store,
            &latest.checkpoint,
            log,
        )
        .map_err(|e| format!("recover: {e}"))?;
        // Recovered means durable again: a sealed checkpoint covering the
        // replayed suffix (also the barrier that waits for the shards).
        f.checkpoint()
            .map_err(|e| format!("post-recovery checkpoint: {e}"))?;
        out.recovery_s.push(t.elapsed().as_secs_f64());
        if k == 0 {
            let wm = latest.checkpoint.watermark;
            out.suffix_frames = SegmentedLog::from_segments(POLICY, &segments)
                .and_then(|l| l.replay_from(&wm, |_| {}))
                .map(|r| r.frames)
                .unwrap_or(0);
        }
        recovered = Some(f);
    }
    let mut fleet = recovered.ok_or("no recovery ran")?;
    // At-least-once resend from two slots before the crash: frames the
    // decoder still carried are delivered, the rest are stale duplicates
    // the resumed reassembly window drops.
    for (s, chunk) in all.iter().enumerate().skip(crash_slot.saturating_sub(2)) {
        fleet.wire_push(chunk);
        if s > crash_slot {
            checkpoint(&mut fleet, s)?;
        }
    }
    let results = fleet.wire_collect().map_err(|e| format!("collect: {e}"))?;
    fleet.shutdown();
    out.ckpt_ms = ckpt_ms;

    let wave_runs = match refs {
        Refs::PerRecording(_) => BTreeMap::new(),
        Refs::PerWave => {
            let door = FrontDoor::with_segmented_log(POLICY);
            inline_serve(all.iter().copied(), door, config, &mut RefStats::default())?
        }
    };
    let expect = expectations(refs, &wave_runs, &plan);
    judge_wave(
        &mut out.tally,
        grid,
        &plan,
        &expect,
        &results,
        &refused,
        Some(2 * ckpt_every - 1),
        |_, _| {},
    );
    out.snapshot_bytes_per_session = results
        .iter()
        .map(|r| r.snapshot_bytes.len())
        .sum::<usize>() as f64
        / results.len().max(1) as f64;
    Ok(out)
}
