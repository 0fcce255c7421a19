//! Sharded fleet layer: multi-core session serving on top of
//! [`crate::scheduler::SessionScheduler`].
//!
//! One [`SessionScheduler`] saturates one core when driven inline; a
//! monitoring backend wants to saturate *all* of them. [`Fleet`] spawns
//! N worker **shards**, each owning its own scheduler slab on a
//! dedicated OS thread, fed by a per-shard bounded
//! [`std::sync::mpsc::sync_channel`] mailbox.
//! Shards never share mutable session state — the only cross-shard
//! traffic is whole [`MigratedSession`]s lifted out at hop boundaries,
//! and even those travel through the serialized
//! [`crate::snapshot::BeatStreamSnapshot`] byte codec so the live
//! migration path and the crash-recovery path are literally the same
//! code.
//!
//! # Backpressure
//!
//! Admission is **non-blocking**: [`Fleet::admit`] does a `try_send`
//! into the least-loaded shard's mailbox and returns
//! [`CoreError::FleetBackpressure`] when it is full, incrementing
//! `core.fleet.rejected`. Control commands (tick, extract, report,
//! shutdown) use the blocking send — they must not be dropped, and a
//! full mailbox only delays them until the shard drains its ingest
//! backlog. A failed send means the shard is gone; the supervisor
//! learns that from the events channel, so sends ignore it. Dropping
//! either end disconnects the channel, so nobody blocks on a dead peer.
//!
//! # Supervision
//!
//! Worker loops run under `catch_unwind`: a panicking session cannot
//! take the process down. A panicked worker posts a `Down` event
//! and exits; its mailbox closes so nothing ever blocks against a dead
//! shard, and the control thread surfaces [`CoreError::ShardDown`]
//! instead of hanging. Idle workers bump a per-shard heartbeat on a
//! short mailbox-poll cadence, so a worker wedged inside a command is
//! distinguishable from an idle one — the control thread's event waits
//! double as a watchdog and declare a shard down once its heartbeat
//! freezes past the stall deadline. [`Fleet::restart_shard`] spawns a
//! replacement worker and restores its wire sessions from the last
//! sealed checkpoint plus an ingest-log suffix replay, bitwise-equal to
//! a shard that never died.
//!
//! # Durability
//!
//! The control thread's [`FrontDoor`] owns checkpoint and recovery:
//! watermark, checkpoint assembly, store append, lag-by-one compaction
//! and suffix replay. [`Fleet::checkpoint`] and [`Fleet::recover`] only
//! gather engine snapshots from the shards and hand restored engines
//! back, so they share one implementation with the single-threaded
//! reference, [`crate::wire::WireHub`]. Engines are restored on the
//! control thread; an unusable snapshot fails the recovery with
//! [`CoreError::RecoveryFailed`] instead of dropping the session.
//!
//! # Observability
//!
//! Fleet-level: `core.fleet.shards`, `core.fleet.log_segments` (gauges),
//! `core.fleet.enqueued`, `core.fleet.rejected`,
//! `core.fleet.migrations`, `core.fleet.restarts`,
//! `core.fleet.checkpoints`, `core.fleet.compactions` (counters),
//! `core.fleet.rebalance_us`, `core.fleet.checkpoint_us` (histograms).
//! Per shard `i`, the embedded scheduler publishes
//! `core.fleet.shard<i>.hop_us` and `core.fleet.shard<i>.quarantined`
//! via [`SessionScheduler::with_metric_prefix`].

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cardiotouch_ingest::{
    Assembler, Checkpoint, CheckpointStore, FrameView, LogPosition, SegmentPolicy, SegmentedLog,
    SessionResume,
};

use crate::config::PipelineConfig;
use crate::scheduler::{MigratedSession, ScheduleReport, SessionFeed, SessionScheduler};
use crate::snapshot::BeatStreamSnapshot;
use crate::stream::{BeatStream, QualifiedBeat};
use crate::wire::{restore_stream, FrontDoor, WireSessionResult};
use crate::CoreError;

/// Default per-shard ingest mailbox capacity (commands, not samples).
pub const DEFAULT_MAILBOX_CAPACITY: usize = 256;

/// Default watchdog stall deadline: a shard whose heartbeat freezes
/// this long is declared down ([`CoreError::ShardDown`]).
pub const DEFAULT_STALL_DEADLINE: Duration = Duration::from_secs(30);

/// Control-thread event-wait poll cadence (watchdog resolution).
const WATCHDOG_TICK: Duration = Duration::from_millis(25);

/// Idle worker mailbox-poll cadence — each timeout bumps the heartbeat,
/// so an idle shard is provably alive.
const WORKER_IDLE_TICK: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------------------
// Shard protocol
// ---------------------------------------------------------------------------

/// Commands a shard worker understands. Every command except the two
/// admissions and `Shutdown` is answered with exactly one
/// [`ShardEvent`], so the control thread's request/reply bookkeeping
/// stays trivial.
enum ShardCmd {
    /// Admit a fresh session (fleet ingest path; feed pre-validated).
    Admit(Box<SessionFeed>),
    /// Admit a session migrated in from another shard, engine state as
    /// serialized snapshot bytes — the crash-recovery wire format.
    AdmitMigrated {
        session: Box<MigratedSession>,
        snapshot_bytes: Vec<u8>,
    },
    /// Advance every session by `ticks` hops, inline on the shard
    /// thread. Answered with [`ShardEvent::RunDone`].
    Run { ticks: usize },
    /// Lift up to `max` migratable sessions out of the slab. Answered
    /// with [`ShardEvent::Extracted`].
    Extract { max: usize },
    /// Answered with [`ShardEvent::Report`] carrying the given elapsed
    /// wall-clock for throughput math.
    Report { elapsed_s: f64 },
    /// Open a frame-driven wire session: the shard owns a dedicated
    /// [`BeatStream`] for it, outside the scheduler slab.
    WireAdmit { session: u32 },
    /// A reassembled sample run for a wire session, decoded by the
    /// fleet control thread's [`FrontDoor`].
    WireSamples {
        session: u32,
        ecg: Vec<f64>,
        z: Vec<f64>,
    },
    /// Drain every wire session's accumulated beats and final state.
    /// Answered with [`ShardEvent::WireCollected`].
    WireCollect,
    /// Snapshot every wire session in place (sessions stay live) and
    /// drain their accumulated beats — the shard half of a fleet
    /// checkpoint. Answered with [`ShardEvent::WireSnapshotted`].
    WireSnapshot,
    /// Reopen a wire session with an engine the control thread restored
    /// from checkpointed snapshot bytes (restart recovery).
    WireRestore {
        session: u32,
        stream: Box<BeatStream>,
    },
    /// Panic inside the worker loop — the chaos harness's shard-crash
    /// switch. Exercises the same unwind path a session bug would.
    InjectPanic,
    /// Protocol barrier: answered with [`ShardEvent::Synced`] echoing
    /// the token. Per-shard FIFO means every reply to an older command
    /// has drained once the echo arrives — how the supervisor
    /// re-synchronizes the solicited protocol after an aborted
    /// exchange.
    Sync { token: u64 },
    /// Terminate the worker loop.
    Shutdown,
}

/// One wire session's contribution to a fleet checkpoint.
struct WireSessionSnapshot {
    session: u32,
    snapshot_bytes: Vec<u8>,
    drained: Vec<QualifiedBeat>,
}

/// Replies from shard workers, tagged with the shard index.
enum ShardEvent {
    RunDone,
    Extracted {
        shard: usize,
        sessions: Vec<MigratedSession>,
    },
    Report {
        shard: usize,
        report: Box<ScheduleReport>,
    },
    WireCollected {
        results: Vec<WireSessionResult>,
    },
    WireSnapshotted {
        sessions: Vec<WireSessionSnapshot>,
    },
    Synced {
        shard: usize,
        token: u64,
    },
    /// Posted by the spawn wrapper when the worker panicked; the
    /// supervisor marks the shard down and refuses further traffic to
    /// it until [`Fleet::restart_shard`]. The epoch identifies the
    /// worker incarnation — a Down from a replaced incarnation is
    /// stale and ignored.
    Down {
        shard: usize,
        epoch: u64,
    },
}

/// Liveness state shared between one worker thread and the supervisor.
struct ShardHealth {
    /// Bumped by the worker on every command and idle poll; a frozen
    /// value past the stall deadline means a wedged thread.
    heartbeat: AtomicU64,
    /// Set when the worker panicked or was declared stalled.
    down: AtomicBool,
}

impl ShardHealth {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            heartbeat: AtomicU64::new(0),
            down: AtomicBool::new(false),
        })
    }

    fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shard worker main loop: owns one scheduler slab, drains its mailbox
/// until `Shutdown` (or the fleet drops the sender).
fn shard_main(
    shard: usize,
    config: PipelineConfig,
    rx: &Receiver<ShardCmd>,
    events: &mpsc::Sender<ShardEvent>,
    health: &ShardHealth,
) {
    let mut sched = match SessionScheduler::new(config, Vec::new()) {
        Ok(s) => s.with_metric_prefix(&format!("core.fleet.shard{shard}")),
        // Config was validated when the fleet built its probe scheduler;
        // an unconstructible shard just exits and the control thread
        // reports `FleetWorkerLost` on first contact.
        Err(_) => return,
    };
    // Frame-driven wire sessions live beside the scheduler slab: each
    // owns a plain BeatStream pushed with whatever sample runs the
    // control thread's front door reassembles, no template feed.
    let mut wire: BTreeMap<u32, (BeatStream, Vec<crate::stream::QualifiedBeat>)> = BTreeMap::new();
    let wire_beats = cardiotouch_obs::counter(&format!("core.fleet.shard{shard}.wire_beats"));
    loop {
        let cmd = match rx.recv_timeout(WORKER_IDLE_TICK) {
            Ok(cmd) => cmd,
            Err(RecvTimeoutError::Timeout) => {
                // Idle is not stalled: prove liveness to the watchdog.
                health.beat();
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        health.beat();
        match cmd {
            ShardCmd::Admit(feed) => {
                // Feeds are validated fleet-side; an engine construction
                // failure here would also have failed shard startup.
                let _ = sched.admit(*feed);
            }
            ShardCmd::AdmitMigrated {
                mut session,
                snapshot_bytes,
            } => {
                // Rehydrate from the wire bytes, proving on every live
                // migration that the serialized form alone is enough to
                // resume a session (the crash-recovery guarantee).
                if let Ok(snapshot) = BeatStreamSnapshot::from_bytes(&snapshot_bytes) {
                    session.snapshot = snapshot;
                    let _ = sched.admit_migrated(&session);
                }
            }
            ShardCmd::Run { ticks } => {
                for _ in 0..ticks {
                    let _ = sched.tick();
                    // A long run is live work, not a stall.
                    health.beat();
                }
                if events.send(ShardEvent::RunDone).is_err() {
                    return;
                }
            }
            ShardCmd::Extract { max } => {
                let mut sessions = Vec::new();
                for _ in 0..max {
                    match sched.extract_migratable() {
                        Some(m) => sessions.push(m),
                        None => break,
                    }
                }
                if events
                    .send(ShardEvent::Extracted { shard, sessions })
                    .is_err()
                {
                    return;
                }
            }
            ShardCmd::Report { elapsed_s } => {
                let report = Box::new(sched.report(elapsed_s));
                if events.send(ShardEvent::Report { shard, report }).is_err() {
                    return;
                }
            }
            ShardCmd::WireAdmit { session } => {
                // Config was probed fleet-side; duplicate admissions
                // keep the existing session state.
                if let Ok(stream) = BeatStream::new(config) {
                    wire.entry(session).or_insert((stream, Vec::new()));
                }
            }
            ShardCmd::WireSamples { session, ecg, z } => {
                if let Some((stream, beats)) = wire.get_mut(&session) {
                    // Channels come from the reassembler, equal-length
                    // by construction.
                    if let Ok(mut emitted) = stream.push_qualified(&ecg, &z) {
                        if !emitted.is_empty() {
                            wire_beats.add(emitted.len() as u64);
                        }
                        beats.append(&mut emitted);
                    }
                }
            }
            ShardCmd::WireCollect => {
                let results = std::mem::take(&mut wire)
                    .into_iter()
                    .map(|(session, (stream, beats))| WireSessionResult {
                        session,
                        snapshot_bytes: stream.snapshot().to_bytes(),
                        states: stream.channel_states(),
                        beats,
                    })
                    .collect();
                if events.send(ShardEvent::WireCollected { results }).is_err() {
                    return;
                }
            }
            ShardCmd::WireSnapshot => {
                let sessions = wire
                    .iter_mut()
                    .map(|(&session, (stream, beats))| WireSessionSnapshot {
                        session,
                        snapshot_bytes: stream.snapshot().to_bytes(),
                        drained: std::mem::take(beats),
                    })
                    .collect();
                if events
                    .send(ShardEvent::WireSnapshotted { sessions })
                    .is_err()
                {
                    return;
                }
            }
            ShardCmd::WireRestore { session, stream } => {
                wire.insert(session, (*stream, Vec::new()));
            }
            ShardCmd::InjectPanic => panic!("injected shard fault (chaos harness)"),
            ShardCmd::Sync { token } => {
                if events.send(ShardEvent::Synced { shard, token }).is_err() {
                    return;
                }
            }
            ShardCmd::Shutdown => return,
        }
    }
}

/// Spawns one supervised shard worker: the loop runs under
/// `catch_unwind`, so a panicking session tears down one shard, not the
/// process. On panic the wrapper marks the shard down and posts
/// [`ShardEvent::Down`]; either way the mailbox receiver drops on exit,
/// disconnecting the channel so senders never block against a dead shard.
fn spawn_shard(
    shard: usize,
    epoch: u64,
    config: PipelineConfig,
    rx: Receiver<ShardCmd>,
    events: mpsc::Sender<ShardEvent>,
    health: Arc<ShardHealth>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("fleet-shard-{shard}"))
        .spawn(move || {
            // AssertUnwindSafe: on unwind the scheduler slab and wire
            // map are dropped wholesale, never observed again — there
            // is no broken invariant to leak.
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                shard_main(shard, config, &rx, &events, &health);
            }));
            if result.is_err() {
                health.down.store(true, Ordering::SeqCst);
                let _ = events.send(ShardEvent::Down { shard, epoch });
            }
        })
        .expect("spawn fleet shard thread")
}

/// The shard with the fewest `counts` among those not declared down;
/// `None` when every shard is down. The one placement rule for fresh,
/// wire and recovered sessions.
fn least_loaded(counts: &[usize], health: &[Arc<ShardHealth>]) -> Option<usize> {
    counts
        .iter()
        .enumerate()
        .filter(|(i, _)| !health[*i].down.load(Ordering::SeqCst))
        .min_by_key(|(_, n)| **n)
        .map(|(i, _)| i)
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

/// Aggregate outcome of a fleet run: one [`ScheduleReport`] per shard
/// plus fleet-level wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<ScheduleReport>,
    /// Hops advanced per session during this run.
    pub ticks: usize,
    /// Wall-clock time of the whole run, seconds (shared across shards
    /// — they tick concurrently).
    pub elapsed_s: f64,
}

impl FleetReport {
    /// Total sessions across all shards.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.shards.iter().map(|r| r.sessions).sum()
    }

    /// Total beats emitted across all shards.
    #[must_use]
    pub fn beats(&self) -> usize {
        self.shards.iter().map(|r| r.beats).sum()
    }

    /// Total session-seconds of signal processed across all shards.
    #[must_use]
    pub fn session_seconds(&self) -> f64 {
        self.shards.iter().map(|r| r.session_seconds).sum()
    }

    /// Sustained real-time sessions for the whole fleet:
    /// session-seconds processed per wall-clock second.
    #[must_use]
    pub fn sustained_sessions(&self) -> f64 {
        self.session_seconds() / self.elapsed_s.max(1e-12)
    }

    /// Sessions still quarantined across all shards.
    #[must_use]
    pub fn sessions_quarantined(&self) -> usize {
        self.shards.iter().map(|r| r.sessions_quarantined).sum()
    }
}

/// N scheduler shards on N dedicated threads, with bounded ingest,
/// live migration, occupancy-based rebalancing, and supervised crash
/// recovery on the wire path.
pub struct Fleet {
    senders: Vec<SyncSender<ShardCmd>>,
    events: mpsc::Receiver<ShardEvent>,
    event_tx: mpsc::Sender<ShardEvent>,
    handles: Vec<JoinHandle<()>>,
    health: Vec<Arc<ShardHealth>>,
    /// Worker incarnation per shard; bumped by restart so stale Down
    /// events from a replaced worker are ignored.
    epochs: Vec<u64>,
    /// Last heartbeat value seen per shard, with when it changed —
    /// the watchdog's stall detector.
    hb_seen: Vec<(u64, Instant)>,
    stall_deadline: Duration,
    sync_token: u64,
    config: PipelineConfig,
    mailbox_capacity: usize,
    /// Control-thread view of per-shard occupancy (admissions minus
    /// migrations out plus migrations in). Used for least-loaded
    /// placement; authoritative counts come from shard reports.
    occupancy: Vec<usize>,
    enqueued: cardiotouch_obs::Counter,
    rejected: cardiotouch_obs::Counter,
    migrations: cardiotouch_obs::Counter,
    restarts: cardiotouch_obs::Counter,
    checkpoints: cardiotouch_obs::Counter,
    compactions: cardiotouch_obs::Counter,
    rebalance_us: cardiotouch_obs::Histogram,
    checkpoint_us: cardiotouch_obs::Histogram,
    log_segments: cardiotouch_obs::Gauge,
    /// Frame-ingest front door (decode + log + reassembly) for the
    /// wire-serving path; runs on the control thread.
    wire_door: FrontDoor,
    /// Wire session → owning shard.
    wire_routing: BTreeMap<u32, usize>,
    /// Wire sessions per shard, for least-loaded placement.
    wire_counts: Vec<usize>,
    /// Checkpoint store, present once durable mode is enabled.
    ckpt_store: Option<CheckpointStore>,
    /// The last sealed checkpoint — what a shard restart restores from.
    last_ckpt: Option<Checkpoint>,
    /// Beats drained from shards at checkpoints: durably covered, owned
    /// by the control thread until [`Fleet::wire_collect`] merges them.
    collected: BTreeMap<u32, Vec<QualifiedBeat>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.handles.len())
            .field("occupancy", &self.occupancy)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Spawns `shards` worker threads, each with a mailbox of
    /// `mailbox_capacity` pending commands.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] when `shards` is zero;
    /// * engine-construction errors for an invalid `config` (probed
    ///   up front so shard threads can assume a good config).
    pub fn new(
        config: PipelineConfig,
        shards: usize,
        mailbox_capacity: usize,
    ) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::InvalidParameter {
                name: "shards",
                value: 0.0,
                constraint: "a fleet needs at least one shard",
            });
        }
        // Probe the config once on the control thread so construction
        // errors surface here, not silently inside a worker.
        drop(SessionScheduler::new(config, Vec::new())?);
        let (event_tx, events) = mpsc::channel();
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut health = Vec::with_capacity(shards);
        let now = Instant::now();
        for shard in 0..shards {
            // Capacity 0 would make a rendezvous channel.
            let (tx, rx) = mpsc::sync_channel(mailbox_capacity.max(1));
            let hp = ShardHealth::new();
            handles.push(spawn_shard(
                shard,
                0,
                config,
                rx,
                event_tx.clone(),
                Arc::clone(&hp),
            ));
            senders.push(tx);
            health.push(hp);
        }
        cardiotouch_obs::gauge("core.fleet.shards").set(shards as i64);
        Ok(Self {
            senders,
            events,
            event_tx,
            handles,
            health,
            epochs: vec![0; shards],
            hb_seen: vec![(0, now); shards],
            stall_deadline: DEFAULT_STALL_DEADLINE,
            sync_token: 0,
            config,
            mailbox_capacity,
            occupancy: vec![0; shards],
            enqueued: cardiotouch_obs::counter("core.fleet.enqueued"),
            rejected: cardiotouch_obs::counter("core.fleet.rejected"),
            migrations: cardiotouch_obs::counter("core.fleet.migrations"),
            restarts: cardiotouch_obs::counter("core.fleet.restarts"),
            checkpoints: cardiotouch_obs::counter("core.fleet.checkpoints"),
            compactions: cardiotouch_obs::counter("core.fleet.compactions"),
            rebalance_us: cardiotouch_obs::histogram("core.fleet.rebalance_us"),
            checkpoint_us: cardiotouch_obs::histogram("core.fleet.checkpoint_us"),
            log_segments: cardiotouch_obs::gauge("core.fleet.log_segments"),
            wire_door: FrontDoor::new(),
            wire_routing: BTreeMap::new(),
            wire_counts: vec![0; shards],
            ckpt_store: None,
            last_ckpt: None,
            collected: BTreeMap::new(),
        })
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Control-thread view of total admitted sessions.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.occupancy.iter().sum()
    }

    /// Admits a session onto the least-loaded shard, non-blocking.
    /// Returns the shard index it landed on.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ChannelLengthMismatch`] for an invalid feed
    ///   (validated here, before it crosses a thread);
    /// * [`CoreError::FleetBackpressure`] when the target shard's
    ///   mailbox is full — the caller sheds load or retries later.
    pub fn admit(&mut self, feed: SessionFeed) -> Result<usize, CoreError> {
        if feed.ecg.len() != feed.z.len() || feed.ecg.is_empty() {
            return Err(CoreError::ChannelLengthMismatch {
                ecg_len: feed.ecg.len(),
                z_len: feed.z.len(),
            });
        }
        let shard = least_loaded(&self.occupancy, &self.health).unwrap_or(0);
        match self.senders[shard].try_send(ShardCmd::Admit(Box::new(feed))) {
            Ok(()) => {
                self.occupancy[shard] += 1;
                self.enqueued.inc();
                Ok(shard)
            }
            Err(_) => {
                self.rejected.inc();
                Err(CoreError::FleetBackpressure { shard })
            }
        }
    }

    /// Advances every shard by `ticks` hops concurrently and returns
    /// the aggregated report.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShardDown`] when a shard panicked or stalled —
    ///   call [`Fleet::restart_shard`] and retry;
    /// * [`CoreError::FleetWorkerLost`] if a shard thread died without
    ///   the supervisor noticing (events channel gone).
    pub fn run(&mut self, ticks: usize) -> Result<FleetReport, CoreError> {
        self.check_down()?;
        let start = Instant::now();
        for tx in &self.senders {
            let _ = tx.send(ShardCmd::Run { ticks });
        }
        for _ in 0..self.senders.len() {
            match self.recv_event()? {
                ShardEvent::RunDone => {}
                // Solicited protocol: nothing else can be in flight.
                _ => return Err(CoreError::FleetWorkerLost { shard: 0 }),
            }
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        let shards = self.collect_reports(elapsed_s)?;
        Ok(FleetReport {
            shards,
            ticks,
            elapsed_s,
        })
    }

    /// Fetches per-shard reports without ticking (elapsed is the
    /// caller's measurement window).
    ///
    /// # Errors
    ///
    /// [`CoreError::FleetWorkerLost`] if a shard thread died.
    pub fn reports(&mut self, elapsed_s: f64) -> Result<Vec<ScheduleReport>, CoreError> {
        self.collect_reports(elapsed_s)
    }

    /// Moves up to `count` sessions from shard `from` to shard `to`,
    /// at a hop boundary, through the serialized snapshot byte codec.
    /// Quarantined sessions are skipped (their engine state would be
    /// rebuilt on retry anyway). Returns the number actually moved.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for an out-of-range shard
    ///   index or `from == to`;
    /// * [`CoreError::FleetWorkerLost`] if a shard thread died.
    pub fn migrate(&mut self, from: usize, to: usize, count: usize) -> Result<usize, CoreError> {
        if from >= self.shards() || to >= self.shards() || from == to {
            return Err(CoreError::InvalidParameter {
                name: "shard",
                value: from as f64,
                constraint: "migration needs two distinct in-range shards",
            });
        }
        self.check_down()?;
        let _ = self.senders[from].send(ShardCmd::Extract { max: count });
        let sessions = match self.recv_event()? {
            ShardEvent::Extracted { shard, sessions } if shard == from => sessions,
            _ => return Err(CoreError::FleetWorkerLost { shard: from }),
        };
        let moved = sessions.len();
        for session in sessions {
            // Serialize on the control thread; the destination shard
            // rehydrates from bytes alone.
            let snapshot_bytes = session.snapshot.to_bytes();
            let _ = self.senders[to].send(ShardCmd::AdmitMigrated {
                session: Box::new(session),
                snapshot_bytes,
            });
        }
        self.occupancy[from] -= moved.min(self.occupancy[from]);
        self.occupancy[to] += moved;
        if moved > 0 {
            self.migrations.add(moved as u64);
        }
        Ok(moved)
    }

    /// Evens out healthy (non-quarantined) occupancy across shards:
    /// repeatedly moves sessions from the most- to the least-loaded
    /// shard until the spread is ≤ 1. Returns total sessions moved;
    /// wall-clock cost lands in `core.fleet.rebalance_us`.
    ///
    /// # Errors
    ///
    /// [`CoreError::FleetWorkerLost`] if a shard thread died.
    pub fn rebalance(&mut self) -> Result<usize, CoreError> {
        let start = Instant::now();
        // Authoritative healthy occupancy from the shards themselves —
        // the control-thread view cannot see quarantines.
        let reports = self.collect_reports(0.0)?;
        let mut healthy: Vec<usize> = reports
            .iter()
            .map(|r| r.sessions - r.sessions_quarantined)
            .collect();
        let mut moved_total = 0;
        loop {
            let (max_i, &max_n) = healthy
                .iter()
                .enumerate()
                .max_by_key(|(_, n)| **n)
                .expect("fleet has at least one shard");
            let (min_i, &min_n) = healthy
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .expect("fleet has at least one shard");
            if max_n.saturating_sub(min_n) <= 1 {
                break;
            }
            let surplus = (max_n - min_n) / 2;
            let moved = self.migrate(max_i, min_i, surplus)?;
            if moved == 0 {
                break;
            }
            healthy[max_i] -= moved;
            healthy[min_i] += moved;
            moved_total += moved;
        }
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.rebalance_us.record(us.max(1));
        Ok(moved_total)
    }

    /// Opens a frame-driven wire session on the least-loaded shard,
    /// non-blocking. Returns the shard it landed on. Sessions may also
    /// auto-admit on their first decoded frame via
    /// [`Fleet::wire_push`]; explicit admission exists so callers can
    /// pre-place sessions and observe backpressure deterministically.
    ///
    /// # Errors
    ///
    /// * [`CoreError::FleetBackpressure`] when the target shard's
    ///   mailbox is full.
    pub fn wire_admit(&mut self, session: u32) -> Result<usize, CoreError> {
        if let Some(&shard) = self.wire_routing.get(&session) {
            return Ok(shard);
        }
        let shard = least_loaded(&self.wire_counts, &self.health).unwrap_or(0);
        match self.senders[shard].try_send(ShardCmd::WireAdmit { session }) {
            Ok(()) => {
                self.wire_routing.insert(session, shard);
                self.wire_counts[shard] += 1;
                self.enqueued.inc();
                Ok(shard)
            }
            Err(_) => {
                self.rejected.inc();
                Err(CoreError::FleetBackpressure { shard })
            }
        }
    }

    /// Feeds a chunk of encoded wire bytes through the front door —
    /// decode, optional ingest-log append, per-session reassembly —
    /// and dispatches each reassembled sample run into its owning
    /// shard's mailbox. Unknown sessions auto-admit; when admission is
    /// refused by backpressure the run is shed and counted in
    /// `ingest.dropped`. Sample dispatch to already-admitted sessions
    /// uses the blocking send: a full mailbox delays, never reorders or
    /// drops, so per-session delivery order (and therefore the beat
    /// stream) stays deterministic. Runs bound for a *down* shard are
    /// shed too — losslessly when a durable log is on, because the
    /// frame is already logged and [`Fleet::restart_shard`] replays the
    /// suffix.
    pub fn wire_push(&mut self, chunk: &[u8]) {
        self.through_door(|door, dispatch| door.push(chunk, dispatch));
    }

    /// Runs `feed` against the front door with the shard dispatch as its
    /// run sink — live pushes and recovery's suffix replay alike. Runs
    /// for unknown sessions auto-admit onto the least-loaded live shard;
    /// runs that cannot be placed, or are bound for a down shard, are
    /// shed and counted.
    fn through_door<R>(
        &mut self,
        feed: impl FnOnce(&mut FrontDoor, &mut dyn FnMut(u32, &[f64], &[f64])) -> R,
    ) -> R {
        let mut shed: u64 = 0;
        let Self {
            senders,
            health,
            wire_door,
            wire_routing,
            wire_counts,
            ..
        } = self;
        let out = feed(wire_door, &mut |session, ecg, z| {
            let shard = match wire_routing.get(&session) {
                Some(&shard) => shard,
                None => {
                    let Some(shard) = least_loaded(wire_counts, health) else {
                        shed += 1;
                        return;
                    };
                    if senders[shard]
                        .try_send(ShardCmd::WireAdmit { session })
                        .is_err()
                    {
                        shed += 1;
                        return;
                    }
                    wire_routing.insert(session, shard);
                    wire_counts[shard] += 1;
                    shard
                }
            };
            if health[shard].down.load(Ordering::SeqCst) {
                shed += 1;
                return;
            }
            let _ = senders[shard].send(ShardCmd::WireSamples {
                session,
                ecg: ecg.to_vec(),
                z: z.to_vec(),
            });
        });
        if shed > 0 {
            self.rejected.add(shed);
            self.wire_door.count_shed(shed);
        }
        out
    }

    /// Decoder and reassembly totals of the wire front door.
    #[must_use]
    pub fn wire_stats(
        &self,
    ) -> (
        cardiotouch_ingest::DecodeStats,
        cardiotouch_ingest::AssemblyStats,
    ) {
        (
            self.wire_door.decode_stats(),
            self.wire_door.assembly_stats(),
        )
    }

    /// Switches the wire front door to **durable** mode: a segmented
    /// (rotating, compactable) ingest log plus an in-memory checkpoint
    /// store, the preconditions for [`Fleet::checkpoint`] and
    /// [`Fleet::restart_shard`] recovery. Call before the first
    /// [`Fleet::wire_push`].
    pub fn wire_enable_durable(&mut self, policy: SegmentPolicy) {
        self.wire_door = FrontDoor::with_segmented_log(policy);
        self.ckpt_store = Some(CheckpointStore::new());
        self.last_ckpt = None;
        self.collected.clear();
    }

    /// Seals one fleet-wide checkpoint: snapshots every wire session in
    /// place (a `WireSnapshot` barrier per shard — mailbox FIFO
    /// guarantees each snapshot covers exactly the runs dispatched
    /// before the current log watermark), appends the checkpoint to the
    /// store, compacts the log to the *previous* checkpoint's watermark
    /// (lag-by-one: a crash mid-append falls back one checkpoint, whose
    /// suffix must still be replayable), and takes ownership of the
    /// beats drained from the shards — they are durably covered now and
    /// will be merged back by [`Fleet::wire_collect`]. Counted in
    /// `core.fleet.checkpoints`; wall-clock in
    /// `core.fleet.checkpoint_us`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::RecoveryFailed`] when durable mode is off;
    /// * [`CoreError::ShardDown`] when a shard is down (restart first);
    /// * [`CoreError::FleetWorkerLost`] on a protocol violation.
    pub fn checkpoint(&mut self) -> Result<LogPosition, CoreError> {
        self.check_down()?;
        if self.ckpt_store.is_none() {
            return Err(CoreError::RecoveryFailed {
                reason: "checkpointing requires durable mode (wire_enable_durable)".into(),
            });
        }
        let start = Instant::now();
        for tx in &self.senders {
            let _ = tx.send(ShardCmd::WireSnapshot);
        }
        let mut snaps: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for _ in 0..self.senders.len() {
            match self.recv_event()? {
                ShardEvent::WireSnapshotted { sessions, .. } => {
                    for s in sessions {
                        self.keep_beats(s.session, s.drained);
                        snaps.insert(s.session, s.snapshot_bytes);
                    }
                }
                _ => return Err(CoreError::FleetWorkerLost { shard: 0 }),
            }
        }
        let store = self
            .ckpt_store
            .as_mut()
            .expect("durable mode checked before the barrier");
        // A session the reassembler knows but no shard owns (admission
        // was shed) restores as a fresh stream.
        let (ckpt, retired) = self
            .wire_door
            .checkpoint(store, |session| snaps.remove(&session).unwrap_or_default())?;
        if retired > 0 {
            self.compactions.add(retired as u64);
        }
        if let Some(log) = self.wire_door.segmented_log() {
            self.log_segments.set(log.segment_count() as i64);
        }
        let watermark = ckpt.watermark;
        self.last_ckpt = Some(ckpt);
        self.checkpoints.inc();
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.checkpoint_us.record(us.max(1));
        Ok(watermark)
    }

    /// Rebuilds a fleet from a recovered checkpoint and the (possibly
    /// crash-cut) segmented log it watermarks: every checkpointed wire
    /// session's engine is restored on the control thread and placed on
    /// a least-loaded shard, then the front door resumes at the
    /// watermark, takes ownership of the log and replays its suffix
    /// through the normal dispatch path; the fleet takes the store.
    /// Combined with the checkpoint-drained beats the caller persisted,
    /// the collected output is bitwise-equal to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// * [`Fleet::new`]'s construction surface;
    /// * [`CoreError::RecoveryFailed`] for an unusable snapshot or a
    ///   watermark below the oldest retained segment.
    pub fn recover(
        config: PipelineConfig,
        shards: usize,
        mailbox_capacity: usize,
        store: CheckpointStore,
        checkpoint: &Checkpoint,
        log: SegmentedLog,
    ) -> Result<Self, CoreError> {
        let mut fleet = Self::new(config, shards, mailbox_capacity)?;
        fleet.ckpt_store = Some(store);
        for sc in &checkpoint.sessions {
            let stream = restore_stream(config, sc.session, &sc.snapshot)?;
            let shard = least_loaded(&fleet.wire_counts, &fleet.health).unwrap_or(0);
            let _ = fleet.senders[shard].send(ShardCmd::WireRestore {
                session: sc.session,
                stream: Box::new(stream),
            });
            fleet.wire_routing.insert(sc.session, shard);
            fleet.wire_counts[shard] += 1;
        }
        fleet.last_ckpt = Some(checkpoint.clone());
        fleet.through_door(|door, dispatch| door.recover(checkpoint, log, dispatch))?;
        Ok(fleet)
    }

    /// The serialized checkpoint store, when durable mode is on — what
    /// a serving binary persists after each [`Fleet::checkpoint`].
    #[must_use]
    pub fn checkpoint_store_bytes(&self) -> Option<&[u8]> {
        self.ckpt_store.as_ref().map(CheckpointStore::as_bytes)
    }

    /// The segmented ingest log, when durable mode is on.
    #[must_use]
    pub fn wire_segmented_log(&self) -> Option<&SegmentedLog> {
        self.wire_door.segmented_log()
    }

    /// The last checkpoint sealed (or recovered from), when any.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.last_ckpt.as_ref()
    }

    /// Per-session reassembly resume states as the front door holds
    /// them *now* (after [`Fleet::recover`] they already include the
    /// replayed log suffix). A serving binary uses `next_seq` to resume
    /// its device-side encoders at the right sequence after a restart.
    #[must_use]
    pub fn wire_session_resumes(&self) -> Vec<(u32, SessionResume)> {
        self.wire_door.export_sessions()
    }

    /// Overrides the watchdog stall deadline (tests and chaos runs use
    /// short deadlines; production keeps [`DEFAULT_STALL_DEADLINE`]).
    pub fn set_stall_deadline(&mut self, deadline: Duration) {
        self.stall_deadline = deadline;
    }

    /// `true` when the shard has been declared down and not restarted.
    #[must_use]
    pub fn shard_is_down(&self, shard: usize) -> bool {
        self.health
            .get(shard)
            .is_some_and(|h| h.down.load(Ordering::SeqCst))
    }

    /// Chaos switch: makes the shard's worker panic inside its command
    /// loop, exercising the exact unwind path a session bug would. The
    /// panic is asynchronous — it surfaces as [`CoreError::ShardDown`]
    /// from the next collective call.
    pub fn inject_shard_panic(&mut self, shard: usize) {
        if let Some(tx) = self.senders.get(shard) {
            let _ = tx.send(ShardCmd::InjectPanic);
        }
    }

    /// Drains every wire session across all shards: accumulated beats
    /// (checkpoint-drained beats merged back in, in emission order),
    /// final snapshot bytes and ladder states, ordered by session id.
    /// Wire sessions are closed afterwards.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShardDown`] when a shard is down (restart first);
    /// * [`CoreError::FleetWorkerLost`] if a shard thread died.
    pub fn wire_collect(&mut self) -> Result<Vec<WireSessionResult>, CoreError> {
        self.check_down()?;
        for tx in &self.senders {
            let _ = tx.send(ShardCmd::WireCollect);
        }
        let mut all = Vec::new();
        for _ in 0..self.senders.len() {
            match self.recv_event()? {
                ShardEvent::WireCollected { results, .. } => all.extend(results),
                _ => return Err(CoreError::FleetWorkerLost { shard: 0 }),
            }
        }
        // Beats drained at checkpoints precede everything the shard
        // accumulated since — prepend them.
        let mut collected = std::mem::take(&mut self.collected);
        for r in &mut all {
            if let Some(mut pre) = collected.remove(&r.session) {
                pre.append(&mut r.beats);
                r.beats = pre;
            }
        }
        self.wire_routing.clear();
        self.wire_counts.iter_mut().for_each(|n| *n = 0);
        // Leftovers: sessions with durably collected beats but no live
        // shard slot (salvaged from an exchange a crash aborted).
        // Synthesize their result from the last checkpoint's snapshot.
        for (session, beats) in collected {
            let stream = restore_stream(self.config, session, self.checkpointed_snapshot(session))?;
            all.push(WireSessionResult {
                session,
                beats,
                snapshot_bytes: stream.snapshot().to_bytes(),
                states: stream.channel_states(),
            });
        }
        all.sort_by_key(|r| r.session);
        Ok(all)
    }

    /// Shuts every shard down and joins the worker threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Graceful drain: seals a final checkpoint (when durable mode is
    /// on — every beat emitted so far becomes durably covered), drains
    /// every wire session, then shuts the workers down. The returned
    /// results are what [`Fleet::wire_collect`] would have returned.
    ///
    /// # Errors
    ///
    /// Same surface as [`Fleet::checkpoint`] and
    /// [`Fleet::wire_collect`]; on error the fleet is still torn down
    /// (by drop), but the drain is lost.
    pub fn shutdown_graceful(mut self) -> Result<Vec<WireSessionResult>, CoreError> {
        if self.ckpt_store.is_some() {
            self.checkpoint()?;
        }
        let results = self.wire_collect()?;
        self.shutdown_inner();
        Ok(results)
    }

    fn shutdown_inner(&mut self) {
        for tx in self.senders.drain(..) {
            // Non-blocking: if the mailbox is full the drop below
            // disconnects it, and the worker exits after draining the
            // backlog — either way it terminates.
            let _ = tx.try_send(ShardCmd::Shutdown);
        }
        for (shard, handle) in self.handles.drain(..).enumerate() {
            // A wedged worker (declared down but never unwound) would
            // hang this join forever; its mailbox is disconnected, so it
            // exits on its own if it ever wakes. Detach it instead.
            let down = self
                .health
                .get(shard)
                .is_some_and(|h| h.down.load(Ordering::SeqCst));
            if down && !handle.is_finished() {
                continue;
            }
            let _ = handle.join();
        }
    }

    /// Waits for one shard event, doubling as the watchdog: while
    /// waiting it folds in panic notifications ([`ShardEvent::Down`])
    /// and declares a shard down when its heartbeat freezes past the
    /// stall deadline — so a wedged worker surfaces as
    /// [`CoreError::ShardDown`] instead of hanging the control thread.
    fn recv_event(&mut self) -> Result<ShardEvent, CoreError> {
        loop {
            match self.events.recv_timeout(WATCHDOG_TICK) {
                Ok(ShardEvent::Down { shard, epoch }) => {
                    if epoch == self.epochs[shard] {
                        self.health[shard].down.store(true, Ordering::SeqCst);
                        return Err(CoreError::ShardDown { shard });
                    }
                    // Stale: a replaced incarnation's death notice.
                }
                Ok(ev) => return Ok(ev),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(shard) = self.watchdog_sweep() {
                        return Err(CoreError::ShardDown { shard });
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(CoreError::FleetWorkerLost { shard: 0 });
                }
            }
        }
    }

    /// One watchdog pass over per-shard heartbeats; returns a shard
    /// newly declared down — stalled past the deadline, or exited
    /// without posting a Down event.
    fn watchdog_sweep(&mut self) -> Option<usize> {
        let now = Instant::now();
        for shard in 0..self.health.len() {
            if self.health[shard].down.load(Ordering::SeqCst) {
                continue;
            }
            let hb = self.health[shard].heartbeat.load(Ordering::Relaxed);
            if hb != self.hb_seen[shard].0 {
                self.hb_seen[shard] = (hb, now);
                continue;
            }
            let stalled = now.duration_since(self.hb_seen[shard].1) > self.stall_deadline;
            if stalled || self.handles[shard].is_finished() {
                self.health[shard].down.store(true, Ordering::SeqCst);
                return Some(shard);
            }
        }
        None
    }

    /// Refuses a collective exchange while any shard is down: it would
    /// hang on the missing reply. The caller restarts the shard first.
    fn check_down(&self) -> Result<(), CoreError> {
        match self
            .health
            .iter()
            .position(|h| h.down.load(Ordering::SeqCst))
        {
            Some(shard) => Err(CoreError::ShardDown { shard }),
            None => Ok(()),
        }
    }

    /// Re-synchronizes the solicited protocol after an aborted
    /// exchange: a `Sync` barrier to every live shard, discarding
    /// everything queued ahead of each echo (replies to requests the
    /// crash abandoned).
    fn quiesce(&mut self) -> Result<(), CoreError> {
        self.sync_token += 1;
        let token = self.sync_token;
        let live: Vec<usize> = (0..self.shards())
            .filter(|&i| !self.health[i].down.load(Ordering::SeqCst))
            .collect();
        for &i in &live {
            let _ = self.senders[i].send(ShardCmd::Sync { token });
        }
        let mut pending = vec![false; self.shards()];
        for &i in &live {
            pending[i] = true;
        }
        let mut remaining = live.len();
        while remaining > 0 {
            match self.recv_event()? {
                ShardEvent::Synced { shard, token: t } if t == token && pending[shard] => {
                    pending[shard] = false;
                    remaining -= 1;
                }
                // Stale replies to an exchange the crash abandoned.
                // Beats inside them are real emissions — salvage them
                // into `collected` instead of dropping them.
                ShardEvent::WireSnapshotted { sessions, .. } => {
                    for s in sessions {
                        self.keep_beats(s.session, s.drained);
                    }
                }
                ShardEvent::WireCollected { results } => {
                    for r in results {
                        self.keep_beats(r.session, r.beats);
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Takes ownership of beats a shard drained: they are merged back,
    /// ahead of the shard's own, by [`Fleet::wire_collect`].
    fn keep_beats(&mut self, session: u32, beats: Vec<QualifiedBeat>) {
        if !beats.is_empty() {
            self.collected.entry(session).or_default().extend(beats);
        }
    }

    /// `session`'s engine snapshot in the last sealed checkpoint; empty
    /// (a fresh stream) when it has none.
    fn checkpointed_snapshot(&self, session: u32) -> &[u8] {
        self.last_ckpt
            .as_ref()
            .and_then(|c| c.sessions.iter().find(|s| s.session == session))
            .map_or(&[], |s| &s.snapshot)
    }

    /// Replaces a down shard's worker with a fresh incarnation and
    /// restores its wire sessions from the last sealed checkpoint plus
    /// an ingest-log suffix replay — bitwise-equal to a shard that
    /// never died. Scheduler-slab sessions are not durable and do not
    /// survive the restart (their feeds live on the caller's side).
    /// Counted in `core.fleet.restarts`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for an out-of-range shard;
    /// * [`CoreError::ShardDown`] if *another* shard went down while
    ///   re-synchronizing (restart that one too, then retry);
    /// * [`CoreError::RecoveryFailed`] when the log suffix below the
    ///   checkpoint watermark is gone (over-compacted) or a checkpointed
    ///   snapshot is unusable.
    pub fn restart_shard(&mut self, shard: usize) -> Result<(), CoreError> {
        if shard >= self.shards() {
            return Err(CoreError::InvalidParameter {
                name: "shard",
                value: shard as f64,
                constraint: "restart needs an in-range shard",
            });
        }
        let (tx, rx) = mpsc::sync_channel(self.mailbox_capacity.max(1));
        let hp = ShardHealth::new();
        self.epochs[shard] += 1;
        let handle = spawn_shard(
            shard,
            self.epochs[shard],
            self.config,
            rx,
            self.event_tx.clone(),
            Arc::clone(&hp),
        );
        // Replacing the sender drops the old one, disconnecting the old
        // mailbox: a merely-wedged (not unwound) old worker exits on
        // its own if it ever wakes up.
        self.senders[shard] = tx;
        let old = std::mem::replace(&mut self.handles[shard], handle);
        if old.is_finished() {
            let _ = old.join();
        }
        // else: detach the wedged thread — joining it would hang the
        // control thread on exactly the stall we are recovering from.
        self.health[shard] = hp;
        self.hb_seen[shard] = (0, Instant::now());
        self.occupancy[shard] = 0;
        self.restarts.inc();
        self.quiesce()?;
        self.restore_wire_sessions(shard)
    }

    /// Re-creates the restarted shard's wire sessions: engine snapshots
    /// from the last checkpoint (fresh streams for sessions younger than
    /// it), then the sample runs the shard saw after the watermark,
    /// re-derived by replaying the log suffix through a scratch
    /// reassembler resumed at the checkpoint — filtered to the shard's
    /// own sessions so its peers see nothing.
    fn restore_wire_sessions(&mut self, shard: usize) -> Result<(), CoreError> {
        let owned: Vec<u32> = self
            .wire_routing
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&id, _)| id)
            .collect();
        self.wire_counts[shard] = owned.len();
        if owned.is_empty() {
            return Ok(());
        }
        for &session in &owned {
            let stream = restore_stream(self.config, session, self.checkpointed_snapshot(session))?;
            let _ = self.senders[shard].send(ShardCmd::WireRestore {
                session,
                stream: Box::new(stream),
            });
        }
        let Some(log) = self.wire_door.segmented_log() else {
            return Ok(());
        };
        let from = self
            .last_ckpt
            .as_ref()
            .map_or_else(|| log.start_position(), |c| c.watermark);
        let owned_set: std::collections::BTreeSet<u32> = owned.into_iter().collect();
        let mut asm = Assembler::new();
        if let Some(ckpt) = self.last_ckpt.as_ref() {
            for sc in &ckpt.sessions {
                if owned_set.contains(&sc.session) {
                    asm.resume_session(sc.session, &sc.resume);
                }
            }
        }
        let mut runs: Vec<(u32, Vec<f64>, Vec<f64>)> = Vec::new();
        log.replay_from(&from, |frame| {
            if let Ok((view, _)) = FrameView::parse(frame) {
                if owned_set.contains(&view.session()) {
                    asm.accept(&view, |session, ecg, z| {
                        runs.push((session, ecg.to_vec(), z.to_vec()));
                    });
                }
            }
        })
        .map_err(|e| CoreError::RecoveryFailed {
            reason: format!("suffix replay: {e}"),
        })?;
        for (session, ecg, z) in runs {
            let _ = self.senders[shard].send(ShardCmd::WireSamples { session, ecg, z });
        }
        Ok(())
    }

    fn collect_reports(&mut self, elapsed_s: f64) -> Result<Vec<ScheduleReport>, CoreError> {
        self.check_down()?;
        for tx in &self.senders {
            let _ = tx.send(ShardCmd::Report { elapsed_s });
        }
        let mut reports: Vec<Option<ScheduleReport>> = vec![None; self.senders.len()];
        for _ in 0..self.senders.len() {
            match self.recv_event()? {
                ShardEvent::Report { shard, report } => reports[shard] = Some(*report),
                _ => return Err(CoreError::FleetWorkerLost { shard: 0 }),
            }
        }
        let reports: Vec<ScheduleReport> = reports.into_iter().flatten().collect();
        // Reconcile the placement heuristic with shard truth.
        for (occ, r) in self.occupancy.iter_mut().zip(&reports) {
            *occ = r.sessions;
        }
        Ok(reports)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardiotouch_physio::path::Position;
    use cardiotouch_physio::scenario::{PairedRecording, Protocol};
    use cardiotouch_physio::subject::Population;

    type Channels = (Arc<Vec<f64>>, Arc<Vec<f64>>);

    fn templates() -> Channels {
        static CACHE: std::sync::OnceLock<Channels> = std::sync::OnceLock::new();
        CACHE
            .get_or_init(|| {
                let population = Population::reference_five();
                let rec = PairedRecording::generate(
                    &population.subjects()[0],
                    Position::One,
                    50_000.0,
                    &Protocol::paper_default(),
                    11,
                )
                .unwrap();
                (
                    Arc::new(rec.device_ecg().to_vec()),
                    Arc::new(rec.device_z().to_vec()),
                )
            })
            .clone()
    }

    fn feed(offset: usize) -> SessionFeed {
        let (ecg, z) = templates();
        SessionFeed::clean(ecg, z, offset)
    }

    #[test]
    fn fleet_matches_single_scheduler_bitwise() {
        let config = PipelineConfig::paper_default(250.0);
        let f = feed(0);

        // Reference: one scheduler, 6 ticks.
        let mut single = SessionScheduler::new(config, vec![f.clone()]).unwrap();
        for _ in 0..6 {
            single.tick().unwrap();
        }
        let want = single.report(1.0);

        // Fleet of 2: the session lands on exactly one shard.
        let mut fleet = Fleet::new(config, 2, 8).unwrap();
        fleet.admit(f).unwrap();
        let report = fleet.run(6).unwrap();
        assert_eq!(report.sessions(), 1);
        assert_eq!(report.beats(), want.beats);
        assert_eq!(report.ticks, 6);
        fleet.shutdown();
    }

    #[test]
    fn migration_mid_run_is_bitwise() {
        let config = PipelineConfig::paper_default(250.0);
        let f = feed(0);

        let mut reference = SessionScheduler::new(config, vec![f.clone()]).unwrap();
        for _ in 0..10 {
            reference.tick().unwrap();
        }
        let want = reference.report(1.0);

        // Single shard first so we know where the session lives, then
        // migrate it to shard 1 halfway through.
        let mut fleet = Fleet::new(config, 2, 8).unwrap();
        let shard = fleet.admit(f).unwrap();
        let other = 1 - shard;
        fleet.run(5).unwrap();
        assert_eq!(fleet.migrate(shard, other, 1).unwrap(), 1);
        let report = fleet.run(5).unwrap();
        assert_eq!(report.shards[other].sessions, 1);
        assert_eq!(report.shards[shard].sessions, 0);
        assert_eq!(report.beats(), want.beats);
        fleet.shutdown();
    }

    #[test]
    fn admission_backpressure_rejects_when_full() {
        let config = PipelineConfig::paper_default(250.0);
        let mut fleet = Fleet::new(config, 1, 1).unwrap();
        fleet.admit(feed(0)).unwrap();
        // Park the worker: a long Run keeps it inside the tick loop for
        // many milliseconds (feeds wrap, so every tick does real DSP
        // work), and until the worker pops it the command itself holds
        // the capacity-1 mailbox's only slot. Either way the burst
        // below cannot be drained, so a rejection is deterministic —
        // the old racy version lost to the drain loop on idle machines.
        fleet.senders[0]
            .send(ShardCmd::Run { ticks: 3000 })
            .unwrap();
        let mut rejected = false;
        for i in 0..4 {
            match fleet.admit(feed(i * 131)) {
                Ok(_) => {}
                Err(CoreError::FleetBackpressure { shard }) => {
                    assert_eq!(shard, 0);
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected, "capacity-1 mailbox never pushed back");
        // Collect the solicited RunDone so the request/reply protocol
        // stays balanced before shutdown.
        match fleet.recv_event().unwrap() {
            ShardEvent::RunDone => {}
            _ => panic!("expected RunDone from the parked worker"),
        }
        fleet.shutdown();
    }

    #[test]
    fn shutdown_and_drop_return_with_a_parked_full_mailbox() {
        let config = PipelineConfig::paper_default(250.0);
        for by_drop in [false, true] {
            // Park the only worker in a long Run (as in the backpressure
            // test) and fill its capacity-1 mailbox behind it.
            let mut fleet = Fleet::new(config, 1, 1).unwrap();
            fleet.admit(feed(0)).unwrap();
            fleet.senders[0]
                .send(ShardCmd::Run { ticks: 3000 })
                .unwrap();
            let full = (1..8).any(|i| fleet.admit(feed(i * 131)).is_err());
            assert!(full, "capacity-1 mailbox never filled");
            // The worker thread holds the only other handle to its
            // health record; it is released once the thread exits.
            let worker = Arc::clone(&fleet.health[0]);
            let (done_tx, done_rx) = mpsc::channel();
            let teardown = std::thread::spawn(move || {
                if by_drop {
                    drop(fleet);
                } else {
                    fleet.shutdown();
                }
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("teardown hung on a full mailbox");
            teardown.join().unwrap();
            assert_eq!(Arc::strong_count(&worker), 1, "worker thread still running");
        }
    }

    #[test]
    fn rebalance_levels_occupancy() {
        let config = PipelineConfig::paper_default(250.0);
        let mut fleet = Fleet::new(config, 2, 32).unwrap();
        let shard = fleet.admit(feed(0)).unwrap();
        // Force-skew: put three more sessions on the same shard by
        // migrating everything onto it first.
        for i in 1..4 {
            fleet.admit(feed(i * 977)).unwrap();
        }
        fleet.run(1).unwrap();
        let other = 1 - shard;
        // Pile all sessions onto one shard.
        fleet.migrate(other, shard, 4).unwrap();
        let reports = fleet.reports(1.0).unwrap();
        assert_eq!(reports[shard].sessions, 4);
        assert_eq!(reports[other].sessions, 0);
        // Rebalance splits them 2/2.
        let moved = fleet.rebalance().unwrap();
        assert_eq!(moved, 2);
        let reports = fleet.reports(1.0).unwrap();
        assert_eq!(reports[shard].sessions, 2);
        assert_eq!(reports[other].sessions, 2);
        fleet.shutdown();
    }

    #[test]
    fn fleet_wire_path_matches_wire_hub_bitwise() {
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let frame_len = 125;
        let sessions = 5u32;
        let seconds = 8;

        // One interleaved wire stream per simulated second, like
        // serve-sim --wire produces.
        let mut encoders: Vec<SessionEncoder> = (0..sessions).map(SessionEncoder::new).collect();
        let mut per_second: Vec<Vec<u8>> = Vec::new();
        for s in 0..seconds {
            let mut buf = Vec::new();
            for c in 0..(250 / frame_len) {
                for (i, enc) in encoders.iter_mut().enumerate() {
                    let off = (i * 977 + s * 250 + c * frame_len) % (ecg.len() - frame_len);
                    enc.push_frame(
                        &ecg[off..off + frame_len],
                        &z[off..off + frame_len],
                        &mut buf,
                    )
                    .unwrap();
                }
            }
            per_second.push(buf);
        }

        // Reference: the single-threaded hub.
        let mut hub = crate::wire::WireHub::new(config).unwrap();
        for buf in &per_second {
            hub.push(buf).unwrap();
        }
        let want = hub.finish();

        // Fleet of 2 shards over the identical byte stream.
        let mut fleet = Fleet::new(config, 2, 64).unwrap();
        for s in 0..sessions {
            fleet.wire_admit(s).unwrap();
        }
        for buf in &per_second {
            fleet.wire_push(buf);
        }
        let (dec, asm) = fleet.wire_stats();
        assert_eq!(dec.frames, u64::from(sessions) * (seconds as u64) * 2);
        assert_eq!(asm.dropped, 0);
        let got = fleet.wire_collect().unwrap();
        fleet.shutdown();

        assert_eq!(got.len(), want.len());
        let total: usize = got.iter().map(|r| r.beats.len()).sum();
        assert!(total > 0, "wire sessions should emit beats");
        for (a, b) in got.iter().zip(&want) {
            assert!(
                a.bitwise_eq(b),
                "session {} diverged between fleet and hub",
                a.session
            );
        }
    }

    #[test]
    fn panicked_shard_surfaces_shard_down_not_a_hang() {
        let config = PipelineConfig::paper_default(250.0);
        let mut fleet = Fleet::new(config, 2, 8).unwrap();
        fleet.admit(feed(0)).unwrap();
        fleet.inject_shard_panic(0);
        // The panic is asynchronous, but FIFO puts it ahead of the Run
        // below: shard 0 never replies, so the collective call must
        // fail with ShardDown — never hang, never unwind into us.
        let err = fleet.run(1).unwrap_err();
        assert!(
            matches!(err, CoreError::ShardDown { shard: 0 }),
            "got {err}"
        );
        assert!(fleet.shard_is_down(0));
        assert!(!fleet.shard_is_down(1));
        // Collective calls keep refusing (not hanging) until restart.
        assert!(matches!(
            fleet.reports(1.0),
            Err(CoreError::ShardDown { shard: 0 })
        ));
        // A restarted shard rejoins the protocol cleanly even though
        // the aborted exchange left stale replies queued.
        fleet.restart_shard(0).unwrap();
        assert!(!fleet.shard_is_down(0));
        let report = fleet.run(1).unwrap();
        assert_eq!(report.shards.len(), 2);
        fleet.shutdown();
    }

    #[test]
    fn durable_fleet_survives_shard_crash_bitwise() {
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let frame_len = 125;
        let sessions = 4u32;
        let seconds = 8;

        let mut encoders: Vec<SessionEncoder> = (0..sessions).map(SessionEncoder::new).collect();
        let mut per_second: Vec<Vec<u8>> = Vec::new();
        for s in 0..seconds {
            let mut buf = Vec::new();
            for c in 0..(250 / frame_len) {
                for (i, enc) in encoders.iter_mut().enumerate() {
                    let off = (i * 977 + s * 250 + c * frame_len) % (ecg.len() - frame_len);
                    enc.push_frame(
                        &ecg[off..off + frame_len],
                        &z[off..off + frame_len],
                        &mut buf,
                    )
                    .unwrap();
                }
            }
            per_second.push(buf);
        }

        // Reference: the single-threaded hub over the same bytes.
        let mut hub = crate::wire::WireHub::new(config).unwrap();
        for buf in &per_second {
            hub.push(buf).unwrap();
        }
        let want = hub.finish();

        // Durable fleet: checkpoint, crash a shard mid-run, restart it
        // from checkpoint + suffix replay, keep serving.
        let mut fleet = Fleet::new(config, 2, 64).unwrap();
        fleet.wire_enable_durable(SegmentPolicy {
            max_bytes: 16 * 1024,
            max_frames: 32,
        });
        for s in 0..sessions {
            fleet.wire_admit(s).unwrap();
        }
        for (i, buf) in per_second.iter().enumerate() {
            fleet.wire_push(buf);
            if i == 2 {
                fleet.checkpoint().unwrap();
            }
            if i == 4 {
                fleet.inject_shard_panic(0);
                // FIFO puts the panic ahead of the snapshot request, so
                // this checkpoint aborts with ShardDown (no partial
                // append — the store only grows on a complete exchange).
                let err = fleet.checkpoint().unwrap_err();
                assert!(
                    matches!(err, CoreError::ShardDown { shard: 0 }),
                    "got {err}"
                );
                fleet.restart_shard(0).unwrap();
                fleet.checkpoint().unwrap();
            }
        }
        assert!(
            fleet.wire_segmented_log().unwrap().retired() > 0,
            "checkpoints should have compacted the log"
        );
        let got = fleet.shutdown_graceful().unwrap();

        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!(
                a.bitwise_eq(b),
                "session {} diverged after crash recovery",
                a.session
            );
        }
    }

    #[test]
    fn fleet_recover_from_store_and_log_matches_reference() {
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let frame_len = 125;
        let sessions = 3u32;
        let seconds = 8;

        let mut encoders: Vec<SessionEncoder> = (0..sessions).map(SessionEncoder::new).collect();
        let mut per_second: Vec<Vec<u8>> = Vec::new();
        for s in 0..seconds {
            let mut buf = Vec::new();
            for c in 0..(250 / frame_len) {
                for (i, enc) in encoders.iter_mut().enumerate() {
                    let off = (i * 977 + s * 250 + c * frame_len) % (ecg.len() - frame_len);
                    enc.push_frame(
                        &ecg[off..off + frame_len],
                        &z[off..off + frame_len],
                        &mut buf,
                    )
                    .unwrap();
                }
            }
            per_second.push(buf);
        }

        let mut hub = crate::wire::WireHub::new(config).unwrap();
        for buf in &per_second {
            hub.push(buf).unwrap();
        }
        let want = hub.finish();

        // First incarnation: durable run, checkpoint midway, then the
        // whole process "dies" — all that survives is the store bytes,
        // the log, and the beats drained at the checkpoint.
        let mut first = Fleet::new(config, 2, 64).unwrap();
        first.wire_enable_durable(SegmentPolicy {
            max_bytes: 16 * 1024,
            max_frames: 32,
        });
        let split = 5;
        for buf in &per_second[..split] {
            first.wire_push(buf);
        }
        first.checkpoint().unwrap();
        let store_bytes = first.checkpoint_store_bytes().unwrap().to_vec();
        let log = first.wire_segmented_log().unwrap().clone();
        let checkpoint_results = first.wire_collect().unwrap();
        drop(first);

        // Cold start from the persisted state; replay re-emits nothing
        // (the checkpoint watermark is the log end), then serving
        // continues where the dead process stopped.
        let recovered = cardiotouch_ingest::recover_latest(&store_bytes)
            .unwrap()
            .expect("sealed checkpoint must recover");
        let (store, _) = CheckpointStore::from_valid_prefix(&store_bytes).unwrap();
        let mut second = Fleet::recover(config, 2, 64, store, &recovered.checkpoint, log).unwrap();
        for buf in &per_second[split..] {
            second.wire_push(buf);
        }
        let tail_results = second.shutdown_graceful().unwrap();

        // Checkpoint-covered beats + recovered-run beats must equal the
        // uninterrupted reference bitwise.
        assert_eq!(tail_results.len(), want.len());
        for (tail, w) in tail_results.iter().zip(&want) {
            let mut beats = checkpoint_results
                .iter()
                .find(|r| r.session == tail.session)
                .map(|r| r.beats.clone())
                .unwrap_or_default();
            beats.extend(tail.beats.iter().cloned());
            let merged = WireSessionResult {
                session: tail.session,
                beats,
                snapshot_bytes: tail.snapshot_bytes.clone(),
                states: tail.states,
            };
            assert!(
                merged.bitwise_eq(w),
                "session {} diverged across process restart",
                tail.session
            );
        }
    }

    #[test]
    fn recover_rejects_an_undecodable_session_snapshot() {
        use cardiotouch_ingest::SessionEncoder;

        let config = PipelineConfig::paper_default(250.0);
        let (ecg, z) = templates();
        let frame_len = 125;
        let mut encoders: Vec<SessionEncoder> = (0..3).map(SessionEncoder::new).collect();
        let mut fleet = Fleet::new(config, 2, 64).unwrap();
        fleet.wire_enable_durable(SegmentPolicy {
            max_bytes: 16 * 1024,
            max_frames: 32,
        });
        for s in 0..4 {
            let mut buf = Vec::new();
            for (i, enc) in encoders.iter_mut().enumerate() {
                let off = i * 977 + s * 250;
                for c in 0..2 {
                    let at = off + c * frame_len;
                    enc.push_frame(&ecg[at..at + frame_len], &z[at..at + frame_len], &mut buf)
                        .unwrap();
                }
            }
            fleet.wire_push(&buf);
        }
        fleet.checkpoint().unwrap();
        let store_bytes = fleet.checkpoint_store_bytes().unwrap().to_vec();
        let log = fleet.wire_segmented_log().unwrap().clone();
        drop(fleet);

        let mut sealed = cardiotouch_ingest::recover_latest(&store_bytes)
            .unwrap()
            .expect("sealed checkpoint must recover")
            .checkpoint;
        let victim = &mut sealed.sessions[1];
        assert!(!victim.snapshot.is_empty());
        victim.snapshot[0] ^= 0xFF;
        let session = victim.session;
        let (store, _) = CheckpointStore::from_valid_prefix(&store_bytes).unwrap();
        match Fleet::recover(config, 2, 64, store, &sealed, log) {
            Err(CoreError::RecoveryFailed { reason }) => {
                assert!(reason.contains(&format!("session {session}")), "{reason}");
            }
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("a corrupt snapshot recovered without error"),
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let config = PipelineConfig::paper_default(250.0);
        assert!(matches!(
            Fleet::new(config, 0, 8),
            Err(CoreError::InvalidParameter { name: "shards", .. })
        ));
    }
}
