//! Leveled structured event logging: one JSON object per line (JSONL).
//!
//! Orthogonal to the metric sink: the sink aggregates, the log streams.
//! Logging is off by default; `init_log_from_env("GSU_LOG")` enables it from
//! the conventional environment variable (`GSU_LOG=error|warn|info|debug`).
//! Events go to stderr unless a writer is installed with
//! [`set_log_writer`] (tests, or a daemon redirecting to a file).
//!
//! At `debug`, every completed [`span`](crate::span) additionally emits an
//! event with its name and duration, so a `GSU_LOG=debug` run is a readable
//! narration of the same structure the Chrome trace draws.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::escape;
use crate::ArgValue;

/// Event severity, ordered `Error < Warn < Info < Debug` (a level enables
/// itself and everything less verbose).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Suspicious but survivable conditions (what `telemetry::warning` emits).
    Warn = 2,
    /// Request/operation progress.
    Info = 3,
    /// Per-span narration and other high-volume detail.
    Debug = 4,
}

impl Level {
    /// Lower-case name as it appears in the JSONL `level` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a `GSU_LOG` value; unknown or "off"-like values yield `None`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Error),
            2 => Some(Level::Warn),
            3 => Some(Level::Info),
            4 => Some(Level::Debug),
            _ => None,
        }
    }
}

/// 0 = off; otherwise the numeric value of the enabled [`Level`].
static LOG_LEVEL: AtomicU8 = AtomicU8::new(0);
static LOG_WRITER: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Sets the maximum enabled level (`None` disables logging entirely).
pub fn set_log_level(level: Option<Level>) {
    LOG_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// The currently enabled level, if any.
pub fn log_level() -> Option<Level> {
    Level::from_u8(LOG_LEVEL.load(Ordering::Relaxed))
}

/// Whether an event at `level` would be emitted. The fast path: a single
/// relaxed atomic load, mirroring [`crate::enabled`] for the metric sink.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    (level as u8) <= LOG_LEVEL.load(Ordering::Relaxed)
}

/// Reads the log level from the environment variable `var`
/// (conventionally `GSU_LOG`) and installs it; returns the parsed level.
pub fn init_log_from_env(var: &str) -> Option<Level> {
    let level = std::env::var(var).ok().and_then(|v| Level::parse(&v));
    set_log_level(level);
    level
}

/// Redirects events to `writer` instead of stderr (until
/// [`take_log_writer`]).
pub fn set_log_writer(writer: Box<dyn Write + Send>) {
    *LOG_WRITER.lock().unwrap_or_else(|e| e.into_inner()) = Some(writer);
}

/// Removes a writer installed with [`set_log_writer`], restoring stderr,
/// and returns it so tests can inspect what was written.
pub fn take_log_writer() -> Option<Box<dyn Write + Send>> {
    LOG_WRITER.lock().unwrap_or_else(|e| e.into_inner()).take()
}

/// Emits one structured event:
/// `{"ts_us":…,"level":"…","target":"…","msg":"…","fields":{…}}`.
///
/// A no-op (one atomic load) unless `level` is enabled. `target` names the
/// emitting subsystem (`"serve"`, `"telemetry.span"`, …); `fields` attach
/// typed context without string interpolation.
pub fn log_event(level: Level, target: &str, message: &str, fields: &[(&str, ArgValue)]) {
    if !log_enabled(level) {
        return;
    }
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut line = format!(
        "{{\"ts_us\":{ts_us},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
        level.as_str(),
        escape(target),
        escape(message)
    );
    if !fields.is_empty() {
        line.push_str(",\"fields\":{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":{}", escape(key), value.to_json()));
        }
        line.push('}');
    }
    line.push('}');
    let mut writer = LOG_WRITER.lock().unwrap_or_else(|e| e.into_inner());
    match writer.as_mut() {
        Some(w) => {
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
        None => eprintln!("{line}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Level and writer are process-global; tests that touch them must not
    // overlap.
    static LOG_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// A `Write` handle whose buffer outlives the installed writer.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn captured(f: impl FnOnce()) -> String {
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        set_log_writer(Box::new(buf.clone()));
        f();
        take_log_writer();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse(""), None);
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn disabled_emits_nothing() {
        let _guard = LOG_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_log_level(None);
        let out = captured(|| log_event(Level::Error, "t", "dropped", &[]));
        assert!(out.is_empty());
    }

    #[test]
    fn level_filters_and_lines_are_json() {
        let _guard = LOG_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_log_level(Some(Level::Info));
        let out = captured(|| {
            log_event(Level::Debug, "t", "too verbose", &[]);
            log_event(
                Level::Info,
                "serve",
                "request",
                &[
                    ("path", ArgValue::from("/metrics")),
                    ("status", ArgValue::from(200u64)),
                    ("dur_ms", ArgValue::from(1.5)),
                ],
            );
            log_event(Level::Warn, "q\"t", "line\nbreak", &[]);
        });
        set_log_level(None);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "debug must be filtered: {out}");
        assert!(lines[0].contains("\"level\":\"info\""));
        assert!(lines[0].contains("\"target\":\"serve\""));
        assert!(
            lines[0].contains("\"fields\":{\"path\":\"/metrics\",\"status\":200,\"dur_ms\":1.5}")
        );
        assert!(lines[0].starts_with("{\"ts_us\":"));
        assert!(lines[0].ends_with('}'));
        assert!(lines[1].contains("\"target\":\"q\\\"t\""));
        assert!(lines[1].contains("line\\nbreak"));
        for line in &lines {
            crate::json::parse(line).expect("every log line is one JSON object");
        }
        let warn = crate::json::parse(lines[1]).unwrap();
        assert_eq!(warn.string("target"), Ok("q\"t"));
    }

    #[test]
    fn env_init_roundtrip() {
        let _guard = LOG_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("GSU_LOG_TEST_VAR", "debug");
        assert_eq!(init_log_from_env("GSU_LOG_TEST_VAR"), Some(Level::Debug));
        assert!(log_enabled(Level::Debug));
        std::env::set_var("GSU_LOG_TEST_VAR", "nonsense");
        assert_eq!(init_log_from_env("GSU_LOG_TEST_VAR"), None);
        assert!(!log_enabled(Level::Error));
        std::env::remove_var("GSU_LOG_TEST_VAR");
        set_log_level(None);
    }
}
