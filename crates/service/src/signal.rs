//! Std-only graceful-shutdown signal handling.
//!
//! The daemon must drain in-flight work on SIGTERM/SIGINT (§7.2 operators
//! roll the planning service like any other datacenter job). Rust's std
//! exposes no signal API, so this registers a minimal `extern "C"` handler
//! via libc's `signal(2)` — already linked by std on every Unix target —
//! that flips an atomic the accept loop polls. Non-Unix builds fall back to
//! a no-op: `ctrl-c` then kills the process, which is still safe because
//! plans are only ever written whole.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler once a shutdown signal arrives.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once SIGINT or SIGTERM has been received.
pub(crate) fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // `signal(2)` from libc, which std already links against.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Installs the handler for SIGINT and SIGTERM.
    pub(crate) fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal handling off Unix; shutdown is programmatic only.
    pub(crate) fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent).
pub fn install_handlers() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the handler does on a signal.
    fn request_shutdown() {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Clears the flag (a real daemon shuts down once).
    fn reset_for_test() {
        SHUTDOWN.store(false, Ordering::SeqCst);
    }

    #[test]
    fn programmatic_shutdown_roundtrip() {
        reset_for_test();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset_for_test();
        assert!(!shutdown_requested());
    }

    #[cfg(unix)]
    #[test]
    fn handler_installation_does_not_crash() {
        install_handlers();
    }
}
