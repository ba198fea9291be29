//! Readings of the host: process CPU time, peak resident memory and
//! the host's steal time from `/proc`, and the host's speed from a
//! reference loop. Linux reports the tick-based counters in
//! `USER_HZ`, which the kernel fixes at 100 for every user-visible
//! `/proc` interface.

const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, summed over all its
/// threads (fields 14 and 15 of `/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let after = &stat[stat.rfind(')').expect("/proc/self/stat has a comm field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i - 3]
            .parse::<f64>()
            .expect("numeric /proc/self/stat field")
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Cumulative steal seconds over all host CPUs (the `steal` column of
/// the aggregate `cpu` line in `/proc/stat`): time the hypervisor ran
/// something else while this machine's virtual CPUs wanted to run.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let line = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .expect("aggregate cpu line in /proc/stat");
    line.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |t| t / USER_HZ)
}

/// CPU and steal readings bracketing one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct HostMark {
    cpu_s: f64,
    steal_s: f64,
}

impl HostMark {
    /// Read both counters now.
    pub fn now() -> HostMark {
        HostMark {
            cpu_s: process_cpu_s(),
            steal_s: host_steal_s(),
        }
    }

    /// `(process CPU seconds, host steal seconds)` from `self` to
    /// `later`.
    pub fn until(&self, later: &HostMark) -> (f64, f64) {
        (later.cpu_s - self.cpu_s, later.steal_s - self.steal_s)
    }
}

/// [`probe_ns`] on the reference host that the timed run's metrics
/// are scaled to.
pub const REFERENCE_PROBE_NS: f64 = 1_000_000.0;

/// Wall nanoseconds of one fixed reference loop on this host now, the
/// best of five tries. The loop is integer arithmetic over a 16 KiB
/// table and calls nothing of the program under test, so its time
/// moves only with the host's speed: the clock rate the host grants
/// and what other tenants take from the shared core and caches.
pub fn probe_ns() -> f64 {
    const TABLE: usize = 2048;
    const STEPS: u32 = 200_000;
    let table: Vec<u64> = (0..TABLE as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(table[(x as usize) % TABLE]);
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}
