//! Process, thread and machine readings from `/proc` and `/sys` (Linux).
//! Every reader degrades to a neutral value where the file is missing.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Page size assumed for `/proc/self/statm`.
const PAGE_KB: u64 = 4;

/// User plus system CPU time of the whole process, every thread that ever
/// ran included, in seconds (10 ms resolution).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// CPU time of the calling thread in seconds, from the scheduler's
/// nanosecond run-time account.
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Machine-wide `(stolen, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    // cpu user nice system idle iowait irq softirq steal ...
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Resident set size, KiB.
pub fn rss_kb() -> u64 {
    fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * PAGE_KB)
}

/// Peak resident set size (`VmHWM`), KiB.
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `(L2, L3)` cache sizes of CPU 0 in KiB (0 when unknown).
pub fn cache_kb() -> (u64, u64) {
    let (mut l2, mut l3) = (0, 0);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Ok(level), Ok(size)) = (
            fs::read_to_string(format!("{dir}/level")),
            fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let size = size.trim();
        let kb = if let Some(k) = size.strip_suffix('K') {
            k.parse().unwrap_or(0)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().unwrap_or(0) * 1024
        } else {
            size.parse::<u64>().unwrap_or(0) / 1024
        };
        match level.trim() {
            "2" => l2 = kb,
            "3" => l3 = kb,
            _ => {}
        }
    }
    (l2, l3)
}

/// Commit the working directory is checked out at, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU seconds of every live thread of this process except the main one
/// (whose thread id equals the process id).
pub fn other_threads_cpu_s() -> f64 {
    let pid = std::process::id().to_string();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| t.file_name().to_str() != Some(pid.as_str()))
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e9
}
