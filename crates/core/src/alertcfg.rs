//! Alert-plane environment configuration.
//!
//! `NWDP_ALERT=FILE[:format]` turns the structured alert plane on and
//! installs an egress writer at `FILE` — `format` is `jsonl` (default)
//! or `cef`. The tuning knobs ride alongside:
//!
//! - `NWDP_ALERT_RATE` — token-bucket refill rate (alerts per
//!   replay-time unit); `0` or unset disables the limiter.
//! - `NWDP_ALERT_BURST` — token-bucket capacity (positive number).
//! - `NWDP_ALERT_SUPPRESS` — suppression window on the replay clock
//!   (non-negative number).
//!
//! Invalid values go through the same warn-once
//! [`parallel::note_invalid_env_expecting`] path as every other `NWDP_*`
//! knob — one stderr warning per variable per process, a
//! `config.invalid_env{var=...}` counter bump when metrics are on, and
//! the default stands in. With `NWDP_ALERT` unset nothing is enabled and
//! the knobs are not even read, so outputs stay bit-identical.

use crate::parallel;
use nwdp_obs as obs;
use std::path::PathBuf;

/// Parse `FILE[:format]`. The format suffix is only split off when it
/// names a known format, so plain paths containing `:` still work.
fn split_spec(spec: &str) -> (PathBuf, obs::AlertFormat) {
    if let Some((path, suffix)) = spec.rsplit_once(':') {
        if let Some(fmt) = obs::AlertFormat::parse(suffix) {
            return (PathBuf::from(path), fmt);
        }
    }
    (PathBuf::from(spec), obs::AlertFormat::Jsonl)
}

/// Read `NWDP_ALERT` (+ `NWDP_ALERT_RATE` / `_BURST` / `_SUPPRESS`);
/// when set, configure the pipeline, install a buffered file writer,
/// and enable the alert plane. Returns the egress path when configured.
/// Unset ⇒ nothing happens (the plane stays off and free).
pub fn init_alert_from_env() -> Option<PathBuf> {
    let spec = std::env::var_os("NWDP_ALERT")?;
    let spec = spec.to_string_lossy();
    let (path, format) = split_spec(&spec);
    let file = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            // User-facing regardless of tracing config: a bad NWDP_ALERT path
            // silently disabling SIEM egress would lose the whole run's alerts.
            use std::io::Write as _;
            let _ = writeln!(
                std::io::stderr(),
                "nwdp: cannot create NWDP_ALERT file {}: {e}",
                path.display()
            );
            return None;
        }
    };
    obs::set_alert_config(alert_config_from_env());
    obs::add_alert_writer(format, Box::new(std::io::BufWriter::new(file)));
    obs::set_alert_enabled(true);
    Some(path)
}

/// The pipeline tuning the `NWDP_ALERT_*` knobs describe (defaults where
/// unset or invalid). Split out so benches can apply the knobs without
/// installing the env-selected writer.
pub fn alert_config_from_env() -> obs::AlertConfig {
    let default = obs::AlertConfig::default();
    obs::AlertConfig {
        rate: parallel::env_f64(
            "NWDP_ALERT_RATE",
            0.0..=f64::MAX,
            "a non-negative alerts-per-replay-unit rate",
        )
        .unwrap_or(default.rate),
        burst: parallel::env_f64("NWDP_ALERT_BURST", 1.0..=f64::MAX, "a burst size >= 1")
            .unwrap_or(default.burst),
        suppress: parallel::env_f64(
            "NWDP_ALERT_SUPPRESS",
            0.0..=1.0,
            "a suppression window in [0, 1]",
        )
        .unwrap_or(default.suppress),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; the knob tests run under one lock.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spec_splits_format_suffix_only_when_known() {
        let (p, f) = split_spec("alerts.jsonl");
        assert_eq!((p, f), (PathBuf::from("alerts.jsonl"), obs::AlertFormat::Jsonl));
        let (p, f) = split_spec("out/alerts.log:cef");
        assert_eq!((p, f), (PathBuf::from("out/alerts.log"), obs::AlertFormat::Cef));
        let (p, f) = split_spec("weird:name.log");
        assert_eq!((p, f), (PathBuf::from("weird:name.log"), obs::AlertFormat::Jsonl));
        let (p, f) = split_spec("a.json:JSONL");
        assert_eq!((p, f), (PathBuf::from("a.json"), obs::AlertFormat::Jsonl));
    }

    #[test]
    fn knobs_parse_and_fall_back() {
        let _g = guard();
        for var in ["NWDP_ALERT_RATE", "NWDP_ALERT_BURST", "NWDP_ALERT_SUPPRESS"] {
            std::env::remove_var(var);
        }
        assert_eq!(alert_config_from_env(), obs::AlertConfig::default());

        std::env::set_var("NWDP_ALERT_RATE", "250");
        std::env::set_var("NWDP_ALERT_BURST", "8");
        std::env::set_var("NWDP_ALERT_SUPPRESS", "0.05");
        let cfg = alert_config_from_env();
        assert_eq!((cfg.rate, cfg.burst, cfg.suppress), (250.0, 8.0, 0.05));

        // Out-of-range and garbage values fall back to the defaults.
        std::env::set_var("NWDP_ALERT_RATE", "-3");
        std::env::set_var("NWDP_ALERT_BURST", "0");
        std::env::set_var("NWDP_ALERT_SUPPRESS", "soon");
        let cfg = alert_config_from_env();
        assert_eq!(cfg, obs::AlertConfig::default());
        for var in ["NWDP_ALERT_RATE", "NWDP_ALERT_BURST", "NWDP_ALERT_SUPPRESS"] {
            std::env::remove_var(var);
        }
    }

    #[test]
    fn invalid_knob_bumps_config_invalid_env_counter() {
        let _g = guard();
        obs::scoped(&obs::Recorder::new(), || {
            obs::set_enabled(true);
            std::env::set_var("NWDP_ALERT_SUPPRESS", "not-a-window");
            let cfg = alert_config_from_env();
            std::env::remove_var("NWDP_ALERT_SUPPRESS");
            assert_eq!(cfg.suppress, obs::AlertConfig::default().suppress);
            let counter = obs::Scope::new("config")
                .counter_with("invalid_env", &[("var", "NWDP_ALERT_SUPPRESS")]);
            assert_eq!(counter.get(), 1, "invalid knob must be counted");
        });
    }
}
