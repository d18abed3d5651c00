//! The state of the host during a run, recorded as diagnostics next to
//! every result: cores, AVX2, the steal share and a fixed calibration
//! loop's rate before and after. None of these are gated.

use std::hint::black_box;
use std::time::Instant;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the CPU has AVX2 (the batched hash lanes' fast path).
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Aggregate CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks, or `None` where unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Share of CPU time stolen by the hypervisor between two readings, in
/// percent (0 where `/proc/stat` is unavailable).
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            (s1.saturating_sub(s0)) as f64 * 100.0 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Resident set size of this process in MiB, from `/proc/self/status`
/// (0 where unavailable).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size of this process so far in MiB (0 where
/// unavailable).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rate of a fixed dependent multiply-xorshift chain, in millions of
/// steps per second: a pure-ALU yardstick for how fast this host runs
/// right now, independent of the program under test.
pub fn calibrate() -> f64 {
    const STEPS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_a_tick_delta() {
        assert_eq!(steal_pct(Some((10, 100)), Some((15, 200))), 5.0);
        assert_eq!(steal_pct(None, Some((1, 2))), 0.0);
        assert_eq!(steal_pct(Some((1, 2)), Some((1, 2))), 0.0);
    }
}
