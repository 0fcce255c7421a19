//! Served-path benchmark for the cardiotouch wire-serving stack.
//!
//! ```text
//! servebench --workload <fleet-steady|ble-durable|bedside-open> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! Synthesises the paper's 60-recording session grid from the seed,
//! serves it through the public wire API (`Fleet` or `FrontDoor` +
//! `BeatStream`), checks every session against an inline reference, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this file for what each workload
//! and metric means.

mod bedside;
mod closed;
mod inputs;
mod oracle;
mod report;
mod sys;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use cardiotouch::config::PipelineConfig;
use cardiotouch::fleet::Fleet;
use cardiotouch::stream::BeatStream;
use cardiotouch::wire::FrontDoor;
use cardiotouch_physio::scenario::Protocol;

use crate::closed::{Refs, Spec};
use crate::inputs::Grid;
use crate::oracle::RefStats;
use crate::report::Metrics;
use crate::trace::Tracer;

/// Cold set-up measurements per run; `setup_s` is their median.
const SETUP_PROBES: usize = 11;

/// Cold design-cache measurements per run.
const CACHE_PROBES: usize = 5;

/// Generator lateness (p99, ms) beyond which an open-loop run is invalid.
const MAX_GEN_LAG_P99_MS: f64 = 25.0;

/// Largest share of the serving thread's wall time the traced spans may
/// leave unaccounted.
const MAX_UNACCOUNTED_SHARE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    BleDurable,
    BedsideOpen,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fleet-steady" => Some(Self::FleetSteady),
            "ble-durable" => Some(Self::BleDurable),
            "bedside-open" => Some(Self::BedsideOpen),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::FleetSteady => "fleet-steady",
            Self::BleDurable => "ble-durable",
            Self::BedsideOpen => "bedside-open",
        }
    }

    /// Shards: the control thread plus the shards use at most `nproc`
    /// cores.
    fn shards() -> usize {
        sys::nproc().saturating_sub(1).max(1)
    }

    /// The closed-loop shape of the workload (for `bedside-open`, the
    /// shape of its crash probe: one shard serving its sessions).
    fn spec(self) -> Spec {
        let (sessions, frame_samples, link, durable, shards) = match self {
            Self::FleetSteady => (60 * 17, 125, None, false, Self::shards()),
            Self::BleDurable => (500, 5, Some((0.02, 0.02)), true, Self::shards()),
            Self::BedsideOpen => (BEDSIDE.sessions, BEDSIDE.frame_samples, None, true, 1),
        };
        Spec {
            sessions,
            frame_samples,
            link,
            durable,
            shards,
            mailbox: sessions.div_ceil(shards) + 256,
        }
    }
}

pub const BEDSIDE: bedside::Spec = bedside::Spec {
    sessions: 128,
    frame_samples: 125,
    speedup: 32.0,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    cache_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0_f64, false);
    let (mut setup_probe, mut cache_probe) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            "--cache-probe" => cache_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_probe,
        cache_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <fleet-steady|ble-durable|bedside-open> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.setup_probe {
        setup_probe(args.workload)
    } else if args.cache_probe {
        cache_probe()
    } else {
        run(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Child-process body of one cold set-up measurement: constructs the
/// workload's serving objects and admits every session of its first
/// wave, then prints `setup_s design_cache_hits design_cache_misses`.
fn setup_probe(workload: Workload) -> Result<ExitCode, String> {
    cardiotouch_obs::set_enabled(true);
    let fs = Protocol::paper_default().fs;
    let config = PipelineConfig::paper_default(fs);
    let t = Instant::now();
    let fleet = match workload {
        Workload::BedsideOpen => {
            let door = FrontDoor::new();
            let streams: Vec<BeatStream> = (0..BEDSIDE.sessions)
                .map(|_| BeatStream::new(config))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            std::hint::black_box((&door, &streams));
            None
        }
        Workload::FleetSteady | Workload::BleDurable => {
            let spec = workload.spec();
            let mut fleet =
                Fleet::new(config, spec.shards, spec.mailbox).map_err(|e| e.to_string())?;
            if spec.durable {
                fleet.wire_enable_durable(closed::POLICY);
            }
            for p in closed::plans(spec.sessions, 60, spec.slots_per_s(fs), 0, 0) {
                fleet
                    .wire_admit(p.id)
                    .map_err(|e| format!("admission refused: {e}"))?;
            }
            Some(fleet)
        }
    };
    let setup_s = t.elapsed().as_secs_f64();
    if let Some(f) = fleet {
        f.shutdown();
    }
    let snap = cardiotouch_obs::snapshot();
    let c = |n: &str| snap.counter(n).unwrap_or(0);
    println!(
        "{setup_s:e} {} {}",
        c("dsp.design_cache.hits"),
        c("dsp.design_cache.misses")
    );
    Ok(ExitCode::SUCCESS)
}

/// Child-process body of one design-cache measurement: times a cold and
/// then a warm `BeatStream::new` and prints the difference in seconds,
/// the time the cold construction spent filling the design cache.
fn cache_probe() -> Result<ExitCode, String> {
    let config = PipelineConfig::paper_default(Protocol::paper_default().fs);
    let construct = || -> Result<f64, String> {
        let t = Instant::now();
        let stream = BeatStream::new(config).map_err(|e| e.to_string())?;
        let s = t.elapsed().as_secs_f64();
        std::hint::black_box(&stream);
        Ok(s)
    };
    let cold = construct()?;
    let warm = construct()?;
    println!("{:e}", (cold - warm).max(0.0));
    Ok(ExitCode::SUCCESS)
}

/// Runs this executable `n` times with `args` and parses the numbers each
/// run prints.
fn probe_children(n: usize, args: &[&str]) -> Result<Vec<Vec<f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(args)
                .output()
                .map_err(|e| format!("probe {args:?}: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "probe {args:?} failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            String::from_utf8_lossy(&out.stdout)
                .split_whitespace()
                .map(|v| v.parse::<f64>().map_err(|e| format!("probe {args:?}: {e}")))
                .collect()
        })
        .collect()
}

/// Cold set-up figures: the median set-up time over [`SETUP_PROBES`]
/// fresh processes with the design-cache hits and misses of that probe,
/// and the median design-cache fill time over [`CACHE_PROBES`] more.
fn cold_setup(workload: Workload) -> Result<ColdSetup, String> {
    let mut setups = probe_children(
        SETUP_PROBES,
        &["--setup-probe", "--workload", workload.name()],
    )?;
    setups.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let mid = &setups[setups.len() / 2];
    let fills: Vec<f64> = probe_children(
        CACHE_PROBES,
        &["--cache-probe", "--workload", workload.name()],
    )?
    .into_iter()
    .map(|v| v[0])
    .collect();
    Ok(ColdSetup {
        setup_s: mid[0],
        cache_hits: mid[1] as u64,
        cache_misses: mid[2] as u64,
        cache_fill_s: report::median(&fills),
    })
}

/// What the cold set-up probes measured.
#[derive(Debug, Default)]
pub struct ColdSetup {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Design-cache hits during that set-up.
    pub cache_hits: u64,
    /// Design-cache misses during that set-up.
    pub cache_misses: u64,
    /// Median design-cache fill time, seconds.
    pub cache_fill_s: f64,
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let grid = Grid::paper(args.seed)?;
    let fs = grid.fs;
    let config = PipelineConfig::paper_default(fs);
    let spec = args.workload.spec();
    cardiotouch_obs::set_enabled(false);
    let setup = cold_setup(args.workload)?;

    // Pass A runs untraced; with --trace 1 a traced pass B follows and
    // the difference between the two is the tracing overhead.
    let pass_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut ref_stats = RefStats::default();
    let refs = match spec.link {
        None => Refs::per_recording(&grid, spec.frame_samples, config, &mut ref_stats)?,
        Some(_) => Refs::PerWave,
    };
    let mut report = report::Run::new(args.workload, args.seed, &grid);
    let mut tracers = vec![Tracer::new(false)];
    if args.trace {
        tracers.push(Tracer::new(true));
    }
    for tracer in &mut tracers {
        let pass = match (args.workload, &refs) {
            (Workload::BedsideOpen, Refs::PerRecording(per_rec)) => {
                bedside::run_pass(&grid, &BEDSIDE, args.seed, pass_s, per_rec, tracer)?
            }
            _ => closed::run_pass(
                &grid,
                &spec,
                args.seed,
                pass_s,
                &refs,
                tracer,
                &mut ref_stats,
            )?,
        };
        report.passes.push(pass);
    }
    // The probe's wave ids sit far above any timed wave's.
    let probe = closed::crash_probe(&grid, &spec, args.seed, 1 << 15, &refs)?;
    report.finish(probe, setup);

    let valid = match args.workload {
        Workload::BedsideOpen => report.gen_lag_p99_ms() <= MAX_GEN_LAG_P99_MS,
        _ => true,
    };
    println!("{}", report.context_json(valid, &spec));
    if !valid {
        eprintln!(
            "servebench: run invalid: the open-loop generator fell behind its schedule \
             (lag p99 {:.3} ms > {MAX_GEN_LAG_P99_MS} ms); its latencies are not measurements",
            report.gen_lag_p99_ms()
        );
        return Ok(ExitCode::from(3));
    }
    let metrics: Metrics = if args.trace {
        let traced = tracers.last().expect("traced pass ran");
        let (m, layers) = report.per_layer(traced, &ref_stats);
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.csv",
            args.workload.name(),
            args.seed
        ));
        traced
            .write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("servebench: spans written to {}", path.display());
        report.print_layer_table(&m, &layers);
        let unaccounted = m.get("trace.unaccounted_share").unwrap_or(0.0);
        if unaccounted.abs() > MAX_UNACCOUNTED_SHARE {
            return Err(format!(
                "traced spans leave {:.1} % of the serving thread's wall time unaccounted \
                 (bound {:.0} %)",
                unaccounted * 100.0,
                MAX_UNACCOUNTED_SHARE * 100.0
            ));
        }
        m
    } else {
        report.end_to_end()
    };
    println!("{}", report.result_json(&metrics));
    Ok(ExitCode::SUCCESS)
}
