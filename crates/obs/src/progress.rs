//! A rate-limited stderr progress reporter for long-running streams.
//!
//! Progress output is wall-clock territory by definition, so it goes to
//! stderr only (never into any emitted artifact) and all its clock reads
//! go through [`crate::clock`]. Producers call [`Progress::tick`] from
//! their read loop as often as they like (from any thread); lines are
//! emitted at most once per interval, and [`Progress::finish`] prints a
//! final summary.

use crate::clock::Stopwatch;
use std::sync::Mutex;

/// Default minimum milliseconds between emitted lines.
const DEFAULT_INTERVAL_MS: f64 = 500.0;

#[derive(Debug, Default)]
struct TickState {
    last_emit_ms: f64,
    last_records: u64,
    emitted: u64,
}

/// A throttled progress reporter. See the module docs.
#[derive(Debug)]
pub struct Progress {
    label: String,
    interval_ms: f64,
    watch: Stopwatch,
    state: Mutex<TickState>,
}

impl Progress {
    /// A reporter that writes to stderr at most every ~500 ms.
    pub fn stderr(label: &str) -> Progress {
        Progress::with_interval_ms(label, DEFAULT_INTERVAL_MS)
    }

    /// A reporter with an explicit emission interval (0 emits every tick;
    /// useful in tests).
    pub fn with_interval_ms(label: &str, interval_ms: f64) -> Progress {
        Progress {
            label: label.to_string(),
            interval_ms,
            watch: Stopwatch::start(),
            state: Mutex::new(TickState::default()),
        }
    }

    /// Report the cumulative record count; prints a line if the interval
    /// elapsed.
    pub fn tick(&self, records: u64) {
        let now_ms = self.watch.elapsed_ms();
        let mut state = self.state.lock().expect("progress state poisoned");
        if state.emitted > 0 && now_ms - state.last_emit_ms < self.interval_ms {
            return;
        }
        let dt_ms = (now_ms - state.last_emit_ms).max(1e-6);
        let inst_rate = (records.saturating_sub(state.last_records)) as f64 / (dt_ms / 1e3);
        state.last_emit_ms = now_ms;
        state.last_records = records;
        state.emitted += 1;
        drop(state);
        eprintln!("{}", render_line(&self.label, records, inst_rate, now_ms));
    }

    /// Print the final summary line (always emitted).
    pub fn finish(&self, records: u64) {
        let secs = self.watch.elapsed_secs().max(1e-9);
        eprintln!(
            "[{}] done: {} records in {:.2}s ({} rec/s)",
            self.label,
            records,
            secs,
            human(records as f64 / secs)
        );
    }
}

/// Build one progress line (pure; unit-tested without touching stderr).
fn render_line(label: &str, records: u64, inst_rate: f64, elapsed_ms: f64) -> String {
    let avg_rate = records as f64 / (elapsed_ms / 1e3).max(1e-9);
    format!(
        "[{}] {} records · {} rec/s (avg {})",
        label,
        human(records as f64),
        human(inst_rate),
        human(avg_rate)
    )
}

/// Compact human magnitude: `812`, `45.3k`, `2.1M`.
fn human(n: f64) -> String {
    if n >= 1e6 {
        format!("{:.1}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.1}k", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_count_and_rates() {
        let line = render_line("analyze", 100_000, 50_000.0, 2_000.0);
        assert_eq!(line, "[analyze] 100.0k records · 50.0k rec/s (avg 50.0k)");
        let line = render_line("gen", 812, 812.0, 1_000.0);
        assert_eq!(line, "[gen] 812 records · 812 rec/s (avg 812)");
    }

    #[test]
    fn human_magnitudes() {
        assert_eq!(human(999.0), "999");
        assert_eq!(human(1_500.0), "1.5k");
        assert_eq!(human(2_100_000.0), "2.1M");
    }

    #[test]
    fn tick_rate_limit_suppresses_rapid_calls() {
        let p = Progress::with_interval_ms("t", 60_000.0);
        p.tick(1);
        p.tick(2);
        p.tick(3);
        let state = p.state.lock().unwrap();
        assert_eq!(
            state.emitted, 1,
            "only the first tick inside the interval emits"
        );
    }

    #[test]
    fn zero_interval_emits_every_tick() {
        let p = Progress::with_interval_ms("t", 0.0);
        p.tick(1);
        p.tick(2);
        assert_eq!(p.state.lock().unwrap().emitted, 2);
    }
}
