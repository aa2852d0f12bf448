//! Minimal process-control shims for the campaign orchestrator.
//!
//! The workspace carries no `libc` crate, so the handful of raw calls
//! the orchestrator needs — liveness probes (`kill(pid, 0)`) before the
//! hang rule kills the process a lease record names, SIGINT capture
//! and self-delivered signals for crash-injection tests — are declared
//! directly against the C library `std` already links on Unix. Shard,
//! slot and directory ownership needs none of them: it is an `flock`
//! (see `lock`). Everything is gated behind `cfg(unix)`; other
//! platforms get conservative fallbacks (never treat a pid as dead,
//! never install a handler), which keeps the build green.

use std::sync::atomic::{AtomicBool, Ordering};

/// `SIGINT` signal number.
pub const SIGINT: i32 = 2;
/// `SIGKILL` signal number.
pub const SIGKILL: i32 = 9;

#[cfg(unix)]
mod sys {
    extern "C" {
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
    /// `SIG_IGN` as the integer the C API expects.
    pub const SIG_IGN: usize = 1;
}

/// Whether a process with `pid` currently exists. Uses the classic
/// `kill(pid, 0)` probe: delivery of the null signal checks existence
/// without touching the target. `EPERM` means "exists but not ours",
/// which still counts as alive.
fn pid_alive(pid: u32) -> bool {
    #[cfg(unix)]
    {
        let Ok(pid) = i32::try_from(pid) else {
            return false;
        };
        if pid <= 0 {
            return false;
        }
        if unsafe { sys::kill(pid, 0) } == 0 {
            return true;
        }
        // EPERM (1): the process exists under another uid.
        std::io::Error::last_os_error().raw_os_error() == Some(1)
    }
    #[cfg(not(unix))]
    {
        let _ = pid;
        // No probe available: assume alive so leases are never stolen
        // from a process we cannot observe.
        true
    }
}

/// Sends `sig` to `pid`. Returns whether the kernel accepted it.
pub fn send_signal(pid: u32, sig: i32) -> bool {
    #[cfg(unix)]
    {
        match i32::try_from(pid) {
            Ok(pid) if pid > 0 => unsafe { sys::kill(pid, sig) == 0 },
            _ => false,
        }
    }
    #[cfg(not(unix))]
    {
        let _ = (pid, sig);
        false
    }
}

/// A token distinguishing *this incarnation* of `pid` from a later
/// process that recycled the same pid. On Linux this is the process
/// start time (field 22 of `/proc/<pid>/stat`, in clock ticks since
/// boot) — stable for the process's lifetime, different for any
/// successor. `None` where no such marker is available (non-Linux, or
/// the process vanished mid-read); callers must then fall back to
/// `pid_alive` alone.
fn proc_start_token(pid: u32) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // comm (field 2) may contain spaces and parentheses; fields
        // 3.. start after the *last* ')'.
        let rest = &stat[stat.rfind(')')? + 1..];
        // rest begins at field 3 (`state`); starttime is field 22.
        rest.split_whitespace().nth(19)?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        None
    }
}

/// [`proc_start_token`] for the current process.
pub fn self_token() -> Option<u64> {
    proc_start_token(std::process::id())
}

/// Whether `pid` is alive *and* still the incarnation that `recorded`
/// its start token. A recycled pid (same number, later process) fails
/// the token comparison; where either side lacks a token the check
/// degrades to plain liveness.
pub fn same_process(pid: u32, recorded: Option<u64>) -> bool {
    if !pid_alive(pid) {
        return false;
    }
    match (recorded, proc_start_token(pid)) {
        (Some(recorded), Some(live)) => recorded == live,
        _ => true,
    }
}

/// The flag [`install_sigint_flag`] latches. Static because a signal
/// handler cannot carry state.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    // The only async-signal-safe thing worth doing: latch the flag.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs a SIGINT handler that latches a flag instead of killing
/// the process, and returns that flag. The supervisor polls it to
/// trigger a graceful drain. Installing twice is harmless.
pub fn install_sigint_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    unsafe {
        sys::signal(SIGINT, on_sigint as *const () as usize);
    }
    &INTERRUPTED
}

/// Makes this process ignore SIGINT. Workers call this so a Ctrl-C
/// delivered to the whole foreground process group reaches only the
/// supervisor, which converts it into a drain marker the workers
/// honor at the next case boundary.
pub fn ignore_sigint() {
    #[cfg(unix)]
    unsafe {
        sys::signal(SIGINT, sys::SIG_IGN);
    }
}

/// Delivers SIGKILL to the current process — the crash-injection hook
/// used by tests to simulate `kill -9` on a worker mid-shard. Never
/// returns on Unix; aborts elsewhere so callers can rely on
/// divergence-free control flow.
pub fn sigkill_self() -> ! {
    send_signal(std::process::id(), SIGKILL);
    // SIGKILL is not deliverable to ourselves on non-Unix (or the call
    // failed in some exotic way): make the crash happen regardless.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_pid_is_alive_and_bogus_pid_is_not() {
        assert!(pid_alive(std::process::id()));
        // PID 0 / overflow values are never "a worker that still runs".
        assert!(!pid_alive(0));
        assert!(!pid_alive(u32::MAX));
    }

    #[test]
    fn dead_child_is_detected() {
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn /bin/true");
        let pid = child.id();
        child.wait().expect("wait");
        // The child is reaped: its pid no longer exists (modulo pid
        // reuse, which a fresh wait makes overwhelmingly unlikely).
        assert!(!pid_alive(pid));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn start_token_is_stable_for_self_and_absent_for_dead_pid() {
        let a = self_token().expect("linux always has /proc/self/stat");
        let b = self_token().expect("second read");
        assert_eq!(a, b, "start token must be stable across reads");
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn /bin/true");
        let pid = child.id();
        child.wait().expect("wait");
        assert_eq!(proc_start_token(pid), None, "reaped pid has no token");
    }

    #[cfg(unix)]
    #[test]
    fn sigint_flag_latches() {
        let flag = install_sigint_flag();
        flag.store(false, Ordering::SeqCst);
        assert!(send_signal(std::process::id(), SIGINT));
        // Signal delivery to self is synchronous enough in practice,
        // but give the kernel a moment anyway.
        for _ in 0..100 {
            if flag.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(flag.load(Ordering::SeqCst), "SIGINT must latch the flag");
        flag.store(false, Ordering::SeqCst);
    }
}
