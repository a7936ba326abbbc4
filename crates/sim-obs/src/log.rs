//! Structured stderr logging with a global level filter.
//!
//! Replaces the workspace's ad-hoc `eprintln!` diagnostics: every line goes through
//! one filter ([`Level`] ordering, configured via `REPRO_LOG` or a CLI `--log-level`
//! flag read by [`take_level_flag`]) and is prefixed with a monotonic timestamp and the
//! level/target, so interleaved parallel output stays attributable. When flight
//! recording is [enabled](crate::enabled), each emitted line is additionally recorded
//! as an [`EventKind::Log`](crate::EventKind::Log) event and lands in `trace.json`.
//!
//! The macros check the level *before* evaluating their format arguments, so a
//! filtered-out log line costs one relaxed atomic load.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, ordered from most to least severe.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or result-affecting problems.
    Error = 1,
    /// Suspicious conditions that do not stop the run (e.g. trace replay wrapped).
    Warn = 2,
    /// Progress and configuration notes.
    Info = 3,
    /// Detail useful when debugging the tools themselves.
    Debug = 4,
    /// Firehose.
    Trace = 5,
}

impl Level {
    /// Fixed-width uppercase label for line prefixes.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN ",
            Level::Info => "INFO ",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Recover a level from its `repr` value, clamping out-of-range input.
    pub fn from_index(index: u8) -> Level {
        match index {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }

    /// Parse a level name (`error|warn|info|debug|trace|off`, case-insensitive).
    pub fn parse(text: &str) -> Option<Option<Level>> {
        match text.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(None),
            "error" | "1" => Some(Some(Level::Error)),
            "warn" | "warning" | "2" => Some(Some(Level::Warn)),
            "info" | "3" => Some(Some(Level::Info)),
            "debug" | "4" => Some(Some(Level::Debug)),
            "trace" | "5" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// 0 = not yet initialized (read `REPRO_LOG` on first use), 255 = off.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
const LEVEL_OFF: u8 = 255;
const DEFAULT_LEVEL: Level = Level::Warn;

fn max_level() -> u8 {
    let current = MAX_LEVEL.load(Ordering::Relaxed);
    if current != 0 {
        return current;
    }
    let initial = match std::env::var("REPRO_LOG").ok().as_deref().map(Level::parse) {
        Some(Some(None)) => LEVEL_OFF,
        Some(Some(Some(level))) => level as u8,
        _ => DEFAULT_LEVEL as u8,
    };
    // Racing first calls agree on the value unless `set_log_level` intervened; a
    // compare_exchange keeps an explicit setting from being clobbered.
    let _ = MAX_LEVEL.compare_exchange(0, initial, Ordering::Relaxed, Ordering::Relaxed);
    MAX_LEVEL.load(Ordering::Relaxed)
}

/// Set the global level filter (`None` silences everything). Overrides `REPRO_LOG`.
pub fn set_log_level(level: Option<Level>) {
    MAX_LEVEL.store(
        level.map(|l| l as u8).unwrap_or(LEVEL_OFF),
        Ordering::Relaxed,
    );
}

/// Why a command line's `--log-level` could not be read; the message is the one both
/// command-line tools print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LevelFlagError {
    /// The flag is the last argument.
    MissingValue,
    /// Its operand names no level.
    Unknown(String),
}

impl fmt::Display for LevelFlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelFlagError::MissingValue => write!(f, "--log-level needs a value"),
            LevelFlagError::Unknown(value) => write!(f, "--log-level: unknown level {value:?}"),
        }
    }
}

/// Take a global `--log-level LEVEL` out of `args`, from any position, and set the
/// filter: the flag wins over `REPRO_LOG`, which wins over `default` (the lazy
/// `REPRO_LOG` read decides when the variable is set).
pub fn take_level_flag(args: &mut Vec<String>, default: Level) -> Result<(), LevelFlagError> {
    if let Some(pos) = args.iter().position(|a| a == "--log-level") {
        if pos + 1 >= args.len() {
            return Err(LevelFlagError::MissingValue);
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        set_log_level(Level::parse(&value).ok_or(LevelFlagError::Unknown(value))?);
    } else if std::env::var_os("REPRO_LOG").is_none() {
        set_log_level(Some(default));
    }
    Ok(())
}

/// Would a line at `level` currently be emitted?
#[inline]
pub fn log_enabled(level: Level) -> bool {
    let max = max_level();
    max != LEVEL_OFF && level as u8 <= max
}

/// Emit one log line (used via the [`obs_error!`](crate::obs_error) family, which
/// handles level filtering before formatting).
pub fn log(level: Level, target: &'static str, args: fmt::Arguments<'_>) {
    let message = args.to_string();
    let secs = crate::now_ns() as f64 / 1e9;
    eprintln!("[{secs:>9.3}s {} {target}] {message}", level.label());
    if crate::enabled() {
        crate::record_log(level, target, &message);
    }
}

/// Log at [`Level::Error`]: `obs_error!("target", "...", args)`.
#[macro_export]
macro_rules! obs_error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Error) {
            $crate::log::log($crate::Level::Error, $target, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Warn`]: `obs_warn!("target", "...", args)`.
#[macro_export]
macro_rules! obs_warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Warn) {
            $crate::log::log($crate::Level::Warn, $target, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Info`]: `obs_info!("target", "...", args)`.
#[macro_export]
macro_rules! obs_info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Info) {
            $crate::log::log($crate::Level::Info, $target, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Debug`]: `obs_debug!("target", "...", args)`.
#[macro_export]
macro_rules! obs_debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Debug) {
            $crate::log::log($crate::Level::Debug, $target, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_accepts_names_and_off() {
        assert_eq!(Level::parse("WARN"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("debug"), Some(Some(Level::Debug)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn filter_orders_levels() {
        set_log_level(Some(Level::Info));
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Info));
        assert!(!log_enabled(Level::Debug));
        set_log_level(None);
        assert!(!log_enabled(Level::Error));
        set_log_level(Some(DEFAULT_LEVEL));
    }

    #[test]
    fn from_index_round_trips() {
        for level in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::from_index(level as u8), level);
        }
    }
}
