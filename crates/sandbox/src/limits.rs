//! Resource limits, peak-RSS accounting and self-inflicted signals.
//!
//! The workspace forbids `unsafe` everywhere else; this module is the one
//! sanctioned exception, kept to four minimal libc calls (`getrlimit`,
//! `setrlimit`, `clock_gettime`, `raise`) declared by hand — std already
//! links libc on Unix, so no external crate is needed. Everything
//! exported is a safe wrapper; on non-Unix platforms the wrappers report
//! the limit as unsupported and callers fall back to thread-mode
//! isolation. A sandbox worker sets only its *soft* limits, once per
//! request, and never lowers the hard ones, so a later request can raise
//! them again.

/// SIGABRT: abnormal termination (Rust's `abort`, failed allocations).
pub const SIGABRT: i32 = 6;
/// SIGKILL: unconditional kill, also what `Child::kill` delivers.
pub const SIGKILL: i32 = 9;
/// SIGSEGV: invalid memory access.
pub const SIGSEGV: i32 = 11;
/// SIGXCPU: the RLIMIT_CPU soft limit fired.
pub const SIGXCPU: i32 = 24;

/// Human-readable name for the signals the taxonomy cares about.
#[must_use]
pub fn signal_name(signal: i32) -> &'static str {
    match signal {
        SIGABRT => "SIGABRT",
        SIGKILL => "SIGKILL",
        SIGSEGV => "SIGSEGV",
        SIGXCPU => "SIGXCPU",
        _ => "signal",
    }
}

/// The signal that ended a child, if one did.
#[cfg(unix)]
#[must_use]
pub fn status_signal(status: &std::process::ExitStatus) -> Option<i32> {
    std::os::unix::process::ExitStatusExt::signal(status)
}

/// The signal that ended a child: never known off Unix.
#[cfg(not(unix))]
#[must_use]
pub fn status_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

/// The substring Rust's default allocation-error handler prints to stderr
/// before aborting. Its presence alongside a SIGABRT death is how the
/// parent distinguishes `OomKilled` from a plain abort.
pub const OOM_STDERR_MARKER: &str = "memory allocation of";

#[cfg(unix)]
// The workspace-wide unsafe ban (R1005) stops at this module: getrlimit,
// setrlimit and clock_gettime have no safe std wrapper, so the sandbox
// declares the libc bindings itself and keeps the unsafe surface to
// these few lines.
#[allow(unsafe_code)]
mod ffi {
    //! Hand-declared libc bindings (std links libc on every Unix target).

    use std::os::raw::c_long;
    use std::time::Duration;

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        fn raise(sig: i32) -> i32;
    }

    /// Resource and clock numbers differ per kernel; cover the targets
    /// std supports that this workspace plausibly runs on.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const RLIMIT_CPU: i32 = 0;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const RLIMIT_AS: i32 = 9;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const RLIMIT_CPU: i32 = 0;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const RLIMIT_AS: i32 = 5;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 12;

    /// Set the soft limit of `resource` to `value`, capped at the hard
    /// limit, or back to the hard limit for `None`. The hard limit is
    /// left alone, so a later call can raise the soft limit again.
    pub fn set_soft_limit(resource: i32, value: Option<u64>) -> Result<(), String> {
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a valid, live `struct rlimit`; getrlimit only
        // writes through the pointer for the duration of the call.
        if unsafe { getrlimit(resource, &mut lim) } != 0 {
            return Err(format!(
                "getrlimit(resource {resource}) failed with {}",
                std::io::Error::last_os_error()
            ));
        }
        lim.cur = value.map_or(lim.max, |v| v.min(lim.max));
        // SAFETY: as above; setrlimit only reads through the pointer.
        if unsafe { setrlimit(resource, &lim) } != 0 {
            return Err(format!(
                "setrlimit(resource {resource}, soft {}) failed with {}",
                lim.cur,
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }

    /// CPU time this process has used, all threads, user and system.
    pub fn process_cpu_time() -> Result<Duration, String> {
        let mut tp = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `tp` is a valid, live `struct timespec`; clock_gettime
        // only writes through the pointer for the duration of the call.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut tp) } != 0 {
            return Err(format!(
                "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed with {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(Duration::new(
            tp.sec.max(0) as u64,
            tp.nsec.clamp(0, 999_999_999) as u32,
        ))
    }

    pub fn raise_signal(sig: i32) -> Result<(), String> {
        // SAFETY: raise takes a plain integer and delivers the signal to
        // the calling thread; no memory is involved.
        let rc = unsafe { raise(sig) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!("raise({sig}) failed"))
        }
    }
}

/// Set this process's soft address-space limit (RLIMIT_AS) to `bytes`,
/// or back to its hard limit for `None`.
pub fn set_soft_rlimit_as(bytes: Option<u64>) -> Result<(), String> {
    #[cfg(unix)]
    {
        ffi::set_soft_limit(ffi::RLIMIT_AS, bytes)
    }
    #[cfg(not(unix))]
    {
        let _ = bytes;
        Err("RLIMIT_AS is not supported on this platform".to_string())
    }
}

/// Give this process `budget_s` more CPU seconds: set its soft RLIMIT_CPU
/// to the CPU time it has used so far, rounded up to a whole second,
/// plus `budget_s`, or back to its hard limit for `None`. Because the
/// limit is rebased on every call, unused budget never carries over to
/// the next request, and used time never eats into it.
pub fn set_soft_rlimit_cpu(budget_s: Option<u64>) -> Result<(), String> {
    #[cfg(unix)]
    {
        let soft = match budget_s {
            Some(budget) => {
                let used = ffi::process_cpu_time()?;
                let whole_s = used.as_secs() + u64::from(used.subsec_nanos() > 0);
                Some(whole_s.saturating_add(budget))
            }
            None => None,
        };
        ffi::set_soft_limit(ffi::RLIMIT_CPU, soft)
    }
    #[cfg(not(unix))]
    {
        let _ = budget_s;
        Err("RLIMIT_CPU is not supported on this platform".to_string())
    }
}

/// Peak resident set size (VmHWM) of a process, in bytes, read from
/// `/proc/<process>/status`; `process` is a pid or `"self"`. `None` where
/// procfs is unavailable or the process has no memory left to account
/// (it exited).
#[cfg(target_os = "linux")]
#[must_use]
pub fn peak_rss_bytes(process: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{process}/status")).ok()?;
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set size of a process; procfs is Linux-only.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn peak_rss_bytes(_process: &str) -> Option<u64> {
    None
}

/// Deliver `signal` to the current process. Used by hard-fault injection
/// to die exactly the way a real crash would (`raise(SIGKILL)` cannot be
/// caught, blocked or unwound). Falls back to `process::abort` when the
/// signal cannot be raised so the caller never continues past this point.
pub fn die_by_signal(signal: i32) -> ! {
    #[cfg(unix)]
    {
        let _ = ffi::raise_signal(signal);
        // raise() queues the signal for this thread; on return the
        // process should already be gone. If delivery failed, abort.
        std::process::abort();
    }
    #[cfg(not(unix))]
    {
        let _ = signal;
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_names_cover_the_taxonomy() {
        assert_eq!(signal_name(SIGKILL), "SIGKILL");
        assert_eq!(signal_name(SIGABRT), "SIGABRT");
        assert_eq!(signal_name(SIGSEGV), "SIGSEGV");
        assert_eq!(signal_name(SIGXCPU), "SIGXCPU");
        assert_eq!(signal_name(2), "signal");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_reads_this_process() {
        let peak = peak_rss_bytes("self").expect("procfs reports VmHWM");
        assert!(
            peak >= 1 << 20,
            "a test binary peaks above 1 MiB, read {peak}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn an_absurdly_large_rlimit_is_accepted() {
        // A soft limit far above current usage (capped at the hard one)
        // and a generous CPU budget must not disturb the test process,
        // and `None` puts both back at their hard limits.
        assert!(set_soft_rlimit_as(Some(u64::MAX / 2)).is_ok());
        assert!(set_soft_rlimit_cpu(Some(1 << 20)).is_ok());
        assert!(set_soft_rlimit_as(None).is_ok());
        assert!(set_soft_rlimit_cpu(None).is_ok());
    }
}
