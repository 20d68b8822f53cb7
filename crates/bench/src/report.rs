//! Run-output reporting for the `paper` harness.
//!
//! Every experiment routes its human-readable output through the
//! [`crate::report!`] macro instead of bare `println!`, so `paper --quiet …`
//! suppresses the
//! narrative text while machine-readable artifacts (`TRACE_summary.json`,
//! `ORACLE_report.json`, trace exports) are still written.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

static QUIET: AtomicBool = AtomicBool::new(false);

/// Write a machine-readable report artifact. Parent directories are created
/// on demand (so `--out nested/dir/REPORT.json` works), and any I/O failure
/// panics with the offending path in the message instead of a bare
/// `expect`.
pub fn write_report(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                panic!(
                    "cannot create report directory {} (for {}): {e}",
                    parent.display(),
                    path.display()
                )
            });
        }
    }
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("cannot write report {}: {e}", path.display()));
}

/// Globally enable or disable narrative output (the `--quiet` flag).
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::SeqCst);
}

/// Whether narrative output is currently suppressed.
pub fn is_quiet() -> bool {
    QUIET.load(Ordering::SeqCst)
}

/// `println!` that respects the global `--quiet` flag.
#[macro_export]
macro_rules! report {
    () => {
        if !$crate::report::is_quiet() {
            println!();
        }
    };
    ($($arg:tt)*) => {
        if !$crate::report::is_quiet() {
            println!($($arg)*);
        }
    };
}

/// Failure diagnostics that explain a non-zero exit. Routed to stderr and
/// never suppressed: under `--quiet` the exit code is the contract, and a
/// bare `exit(1)` with no reason on record is undebuggable in CI.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        eprintln!($($arg)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_report_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!(
            "swallow-write-report-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("a/b/REPORT.json");
        write_report(&nested, "{}\n");
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "{}\n");
        // Overwrite through the same path works too.
        write_report(&nested, "{\"ok\":true}\n");
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "{\"ok\":true}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quiet_flag_round_trips() {
        assert!(!is_quiet());
        set_quiet(true);
        assert!(is_quiet());
        // A quiet report! must not panic (and prints nothing).
        report!("suppressed {}", 42);
        set_quiet(false);
        assert!(!is_quiet());
    }
}
