//! Process accounting: CPU seconds and peak RSS of a child's whole
//! process tree via `wait4(2)`, and this process's own RSS via
//! `/proc`. No libc crate offline, so the one foreign call is declared
//! locally.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Keeps the calling thread, and every thread it starts from now on,
/// on one CPU until dropped.
///
/// A sim round is one runner thread and the backend's sandbox thread
/// taking turns. Left to the scheduler they land on one vCPU or on two
/// from one round to the next, and on two every hand-off is a futex
/// wake across vCPUs whose cost is the hypervisor's: the same 300
/// cases took 0.57 s or 1.38 s. On one CPU the hand-off is a context
/// switch and the round measures the program.
pub struct Pin {
    before: Option<CpuSet>,
}

impl Pin {
    /// Stays on the CPU the thread is running on (where the scheduler
    /// put the fresh process: the idler one).
    pub fn current_cpu() -> Pin {
        let (mut before, mut one): (CpuSet, CpuSet) = ([0; 16], [0; 16]);
        // SAFETY: both masks are valid `cpu_set_t`-sized buffers that
        // live for the calls; pid 0 is the calling thread.
        let pinned = unsafe {
            let cpu = sched_getcpu();
            (0..1024).contains(&cpu)
                && sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut before) == 0
                && {
                    one[cpu as usize / 64] = 1 << (cpu as usize % 64);
                    sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0
                }
        };
        Pin {
            before: pinned.then_some(before),
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(before) = &self.before {
            // SAFETY: as in `current_cpu`; `before` is the mask the kernel
            // handed out.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), before) };
        }
    }
}

/// Writes to every page of `mb` fresh megabytes and gives them back.
///
/// The VM hands pages a process freed back to its host within
/// seconds, and the next process to touch them pays a host fault each:
/// a `raftjava-graph` round (260 k faults) spent 0.8 to 2.9 s in the
/// kernel depending on how long ago the last round ended. Run in a
/// child of its own right before a round, this leaves the round's
/// pages backed, and its faults cost what the guest kernel charges.
pub fn touch_pages(mb: usize) {
    const PAGE: usize = 4096;
    let mut block = vec![0u8; 0];
    block.reserve_exact(mb << 20);
    let base = block.as_mut_ptr();
    for offset in (0..mb << 20).step_by(PAGE) {
        // SAFETY: `offset` is inside the reserved capacity; the write
        // is volatile so the loop survives optimisation.
        unsafe { base.add(offset).write_volatile(1) };
    }
}

/// What one finished child cost.
#[derive(Debug, Clone)]
pub struct ChildCost {
    /// Spawn to reaped.
    pub wall_s: f64,
    /// User + system CPU of the child and every descendant it waited
    /// for.
    pub cpu_s: f64,
    /// High-water RSS of the largest process in that tree.
    pub peak_rss_mb: f64,
    pub exit_ok: bool,
    /// Every stdout line with the seconds since spawn at which it was
    /// read.
    pub stdout: Vec<(f64, String)>,
}

/// Runs `cmd` to completion, timestamping its stdout lines, and reaps
/// it with `wait4` so the kernel's per-tree accounting is read exactly
/// once, for exactly this child.
pub fn run_child(cmd: &mut Command) -> std::io::Result<ChildCost> {
    let start = Instant::now();
    let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = Vec::new();
    for line in BufReader::new(stdout).lines() {
        lines.push((start.elapsed().as_secs_f64(), line?));
    }
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are valid, writable and live for the
    // call; `Rusage` has the 64-bit Linux `struct rusage` layout (two
    // `struct timeval` of two longs, then fourteen longs). The pid is a
    // child of this process that nothing else waits for: `child` is
    // never `wait`ed through std (dropping a `Child` does not reap).
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped != child.id() as i32 {
        return Err(std::io::Error::last_os_error());
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ChildCost {
        wall_s,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
        // Exited normally (low 7 bits clear) with code 0.
        exit_ok: status == 0,
        stdout: lines,
    })
}

/// This process's current resident set in MB (`VmRSS`); 0 where
/// `/proc` is unavailable.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmRSS:")?
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_cost_reports_exit_status_and_stdout() {
        let ok = run_child(Command::new("sh").args(["-c", "echo one; echo two"])).unwrap();
        assert!(ok.exit_ok);
        let text: Vec<&str> = ok.stdout.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(text, ["one", "two"]);
        assert!(ok.wall_s > 0.0 && ok.peak_rss_mb > 0.0 && ok.cpu_s >= 0.0);
        assert!(ok.stdout[0].0 <= ok.stdout[1].0);

        let bad = run_child(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert!(!bad.exit_ok);
    }

    /// The CPUs this thread may run on.
    fn allowed_cpus() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a valid `cpu_set_t`-sized buffer that lives
        // for the call; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    #[test]
    fn a_pin_narrows_the_allowed_cpus_to_one_and_gives_them_back() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        {
            let _pin = Pin::current_cpu();
            assert_eq!(allowed_cpus().len(), 1);
            // Children inherit the mask: `nproc` counts allowed CPUs.
            let child = run_child(&mut Command::new("nproc")).unwrap();
            assert_eq!(child.stdout[0].1, "1");
        }
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn touched_pages_were_resident() {
        let high_water_mb = || {
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let kb = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .unwrap();
            kb.split_whitespace()
                .next()
                .unwrap()
                .parse::<f64>()
                .unwrap()
                / 1024.0
        };
        let before = high_water_mb();
        touch_pages(before as usize + 64);
        assert!(high_water_mb() >= before + 64.0);
    }

    #[test]
    fn own_rss_is_readable() {
        assert!(rss_mb() > 0.0);
    }
}
