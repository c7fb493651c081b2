//! `--serve-metrics` / `--crash-dump` wiring: the live observability
//! plane shared by the long-running subcommands.
//!
//! Unlike `--trace` / `--metrics-out` (post-mortem, per-run), the live
//! plane answers questions **while the command runs**: it turns on
//! [`spammass_obs::enable_live`] (the process-global registry and flight
//! recorder), installs the panic crash hook, and (with `--serve-metrics
//! ADDR`) starts the HTTP exposition server so `curl ADDR/metrics` works
//! mid-solve. The switch is irreversible for the process, which is fine
//! for a CLI run that exits when the command does.
//!
//! `--serve-linger MS` keeps the server (and process) alive for `MS`
//! milliseconds after the command finishes, so scripted scrapes never
//! race a fast solve to the socket; without `--serve-metrics` there is
//! no server to keep, and the flag is a usage error.

use crate::args::ParsedArgs;
use crate::CliError;
use spammass_obs as obs;
use std::path::PathBuf;

/// Default crash-dump path when the live plane is on and `--crash-dump`
/// is not given.
pub const DEFAULT_CRASH_DUMP: &str = "metrics-crash.json";

/// The live plane of one CLI invocation: an optional exposition server
/// plus the linger the command line asked for.
pub struct LivePlane {
    server: Option<obs::MetricsServer>,
    linger_ms: u64,
}

impl LivePlane {
    /// Builds the live plane from `--serve-metrics` / `--serve-linger` /
    /// `--crash-dump`; `None` when none of them are present (the
    /// process-global registry then stays off and default output is
    /// untouched).
    pub fn from_args(args: &ParsedArgs) -> Result<Option<LivePlane>, CliError> {
        let serve = args.optional("serve-metrics");
        let crash_dump = args.optional("crash-dump");
        let linger_ms: u64 = args.parsed_or("serve-linger", 0)?;
        if serve.is_none() && args.optional("serve-linger").is_some() {
            return Err(CliError::Usage("--serve-linger needs --serve-metrics".into()));
        }
        if serve.is_none() && crash_dump.is_none() {
            return Ok(None);
        }
        obs::enable_live();
        let dump_path = crash_dump.map_or_else(|| PathBuf::from(DEFAULT_CRASH_DUMP), PathBuf::from);
        obs::flight::install_crash_hook(dump_path);
        let server = match serve {
            None => None,
            Some(addr) => {
                let server = obs::MetricsServer::start(addr).map_err(|e| {
                    CliError::Usage(format!("--serve-metrics {addr:?}: cannot bind ({e})"))
                })?;
                // Stderr, not the report text: scripts parse stdout.
                eprintln!("serving metrics on http://{}/metrics", server.local_addr());
                Some(server)
            }
        };
        Ok(Some(LivePlane { server, linger_ms }))
    }

    /// Lingers if asked to, then shuts the server down. Call after the
    /// command finishes (on success or failure).
    pub fn finish(self) {
        if self.linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.linger_ms));
        }
        drop(self.server);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ParsedArgs {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&v).unwrap()
    }

    #[test]
    fn absent_flags_mean_no_live_plane() {
        // Must not enable the irreversible process globals.
        let args = parse(&["stats", "--graph", "g.bin"]);
        assert!(LivePlane::from_args(&args).unwrap().is_none());
        assert!(!obs::is_live());
    }

    #[test]
    fn linger_without_a_target_is_a_usage_error() {
        let args = parse(&["stats", "--graph", "g.bin", "--serve-linger", "50"]);
        assert!(matches!(LivePlane::from_args(&args), Err(CliError::Usage(_))));
        assert!(!obs::is_live());
        // A crash dump starts no server, so there is nothing to linger.
        let args =
            parse(&["stats", "--graph", "g.bin", "--crash-dump", "d.json", "--serve-linger", "50"]);
        match LivePlane::from_args(&args) {
            Err(CliError::Usage(why)) => assert!(why.contains("needs --serve-metrics"), "{why}"),
            Err(other) => panic!("expected a usage error, got {other}"),
            Ok(_) => panic!("--serve-linger without --serve-metrics was accepted"),
        }
        assert!(!obs::is_live(), "checked before the live plane is switched on");
    }

    #[test]
    fn bad_linger_value_is_a_usage_error() {
        let args = parse(&["stats", "--graph", "g.bin", "--serve-linger", "soon"]);
        assert!(matches!(LivePlane::from_args(&args), Err(CliError::Usage(_))));
    }

    // Paths that switch the live plane on live in tests/live_metrics.rs
    // and tests/flight_crash.rs, which run as separate processes.
}
