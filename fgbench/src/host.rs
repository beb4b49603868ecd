//! Host probes: resident-set high-water mark and process CPU time read
//! from procfs, and a host-speed probe. Linux only, like the rest of the
//! benchmark's environment.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Resets the process's resident-set high-water mark (`VmHWM`) to its
/// current RSS, so the next [`peak_rss_kb`] covers only what ran since.
/// Returns false where the kernel refuses, in which case the mark stays
/// process-wide.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in KiB (0 when procfs is unavailable).
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// User + system CPU seconds of this process and its waited-for children,
/// from `/proc/self/stat` (clock ticks at the Linux ABI's fixed 100 Hz).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime is field 14,
    // so it sits at index 11 of the remainder (which starts at field 3).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields
        .iter()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Seconds [`reference_loop`] typically took on the reference host (a
/// 2-vCPU 2.1 GHz VM) while the bounds were set. Host-time metrics are
/// reported at this speed.
pub const REF_NOMINAL_S: f64 = 0.060;

/// Times a fixed loop that owns all its code and data: sorting copies of
/// one random 64 Ki-element array, which is branchy, allocating,
/// cache-resident work like the simulator's. It probes how fast this host
/// runs such code right now; a memory-latency loop over a 4 MiB table, and
/// a mix that added a bytecode interpreter, tracked the simulator worse
/// through the host's slow spells (see README.md). None of the measured
/// program's code runs in it, so a change to the program cannot move it.
/// Returns seconds; the array's set-up is not timed.
pub fn reference_loop() -> f64 {
    let mut x = 5u64;
    let base: Vec<u32> = (0..1 << 16)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let t0 = Instant::now();
    let mut acc = 0u32;
    for _ in 0..44 {
        let mut v = base.clone();
        v.sort_unstable();
        acc ^= v[1000];
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Host parallelism the load was sized against.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_probes_read_this_process() {
        assert!(peak_rss_kb() > 0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= 0.0, "{x}");
        assert!(reference_loop() > 0.0);
    }
}
