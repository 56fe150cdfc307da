//! Resource limits, peak-RSS accounting and self-inflicted signals.
//!
//! The workspace forbids `unsafe` everywhere else; this module is the one
//! sanctioned exception, kept to two minimal libc calls (`setrlimit`,
//! `raise`) declared by hand — std already links libc on Unix, so no
//! external crate is needed. Everything exported is a safe wrapper; on
//! non-Unix platforms the wrappers report the limit as unsupported and
//! callers fall back to thread-mode isolation.

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

/// The substring Rust's default allocation-error handler prints to stderr
/// before aborting. Its presence alongside a SIGABRT death is how the
/// parent distinguishes `OomKilled` from a plain abort.
pub const OOM_STDERR_MARKER: &str = "memory allocation of";

#[cfg(unix)]
// The workspace-wide unsafe ban (R1005) stops at this module: setrlimit
// has no safe std wrapper, so the sandbox declares the libc binding
// itself and keeps the unsafe surface to these few lines.
#[allow(unsafe_code)]
mod ffi {
    //! Hand-declared libc bindings (std links libc on every Unix target).

    #[repr(C)]
    pub struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn raise(sig: i32) -> i32;
    }

    /// Resource numbers differ per kernel; cover the targets std supports
    /// that this workspace plausibly runs on.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const RLIMIT_CPU: i32 = 0;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const RLIMIT_AS: i32 = 9;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const RLIMIT_CPU: i32 = 0;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const RLIMIT_AS: i32 = 5;

    pub fn set_rlimit(resource: i32, value: u64) -> Result<(), String> {
        let lim = RLimit {
            cur: value,
            max: value,
        };
        // SAFETY: `lim` is a valid, live `struct rlimit`; setrlimit only
        // reads through the pointer for the duration of the call.
        let rc = unsafe { setrlimit(resource, &lim) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "setrlimit(resource {resource}, {value}) failed with {}",
                std::io::Error::last_os_error()
            ))
        }
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

/// Cap the process's address space (RLIMIT_AS) to `bytes`.
pub fn apply_rlimit_as(bytes: u64) -> Result<(), String> {
    #[cfg(unix)]
    {
        ffi::set_rlimit(ffi::RLIMIT_AS, bytes)
    }
    #[cfg(not(unix))]
    {
        let _ = bytes;
        Err("RLIMIT_AS is not supported on this platform".to_string())
    }
}

/// Cap the process's CPU time (RLIMIT_CPU) to `seconds`.
pub fn apply_rlimit_cpu(seconds: u64) -> Result<(), String> {
    #[cfg(unix)]
    {
        ffi::set_rlimit(ffi::RLIMIT_CPU, seconds)
    }
    #[cfg(not(unix))]
    {
        let _ = seconds;
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
        // Setting a limit far above current usage must succeed and must
        // not disturb the test process.
        assert!(apply_rlimit_as(u64::MAX / 2).is_ok());
    }
}
