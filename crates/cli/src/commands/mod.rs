//! Subcommand implementations. Each returns the text it would print, so
//! the commands are unit-testable without spawning processes.

pub mod convert;
pub mod detect;
pub mod estimate;
pub mod fsck;
pub mod generate;
pub mod pagerank;
pub mod serve;
pub mod stats;
pub mod update;

use crate::args::ParsedArgs;
use crate::live::LivePlane;
use crate::telemetry::RunTelemetry;
use crate::CliError;

/// Dispatches a parsed command line; returns the report text to print.
///
/// When `--trace` or `--metrics-out` is given, the command runs under an
/// installed telemetry collector and the requested renderings are
/// attached on success; otherwise the output is byte-identical to a run
/// without telemetry. `--serve-metrics` / `--crash-dump` additionally
/// turn on the live observability plane (global registry, flight
/// recorder, exposition server) for the duration of the process.
/// `SPAMMASS_FAILPOINTS` is honored before any command I/O runs, so a
/// scripted crash can target any persistence syscall.
pub fn dispatch(args: &ParsedArgs) -> Result<String, CliError> {
    spammass_delta::failpoint::arm_from_env().map_err(CliError::Usage)?;
    let live = LivePlane::from_args(args)?;
    let result = dispatch_telemetry(args);
    if let Some(live) = live {
        live.finish();
    }
    result
}

fn dispatch_telemetry(args: &ParsedArgs) -> Result<String, CliError> {
    match RunTelemetry::from_args(args)? {
        None => dispatch_inner(args),
        Some(tel) => {
            let text = {
                let _guard = tel.install();
                dispatch_inner(args)?
            };
            tel.finish(args, text)
        }
    }
}

fn dispatch_inner(args: &ParsedArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "generate" => generate::run(args),
        "convert" => convert::run(args),
        "stats" => stats::run(args),
        "pagerank" => pagerank::run(args),
        "estimate" => estimate::run(args),
        "detect" => detect::run(args),
        "update" => update::run(args),
        "serve" => serve::run(args),
        "fsck" => fsck::run(args),
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_subcommand_is_usage_error() {
        let args = ParsedArgs::parse(&["frobnicate".to_string()]).unwrap();
        assert!(matches!(dispatch(&args), Err(CliError::Usage(_))));
    }
}
