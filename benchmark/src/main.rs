//! The repository's benchmark: five workloads, end-to-end metrics from an
//! untraced pass, a per-layer ledger from a traced one. See `README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! benchmark run --seed <n> --out <file> [--seconds <s>] [--sets <k>]   all workloads, both passes
//! benchmark compare <base.json> <new.json>                             against the bounds
//! benchmark spec                                                       the text of BENCHMARK.json
//! ```
//! `--smoke` shrinks inputs to 20k hosts for tests.

mod batch;
mod common;
mod load;
mod refresh;
mod report;
mod runner;
mod serve;
mod setup;
mod spec;
mod trace;
mod util;

use runner::Args;
use std::path::PathBuf;
use util::Res;

/// `--key value` pairs, bare `--flags`, and positionals, in order.
struct Cli {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

const FLAGS: [&str; 1] = ["--smoke"];

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Res<Cli> {
        let mut cli = Cli { positional: Vec::new(), options: Vec::new(), flags: Vec::new() };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if FLAGS.contains(&arg.as_str()) {
                cli.flags.push(arg);
            } else if arg.starts_with("--") {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                cli.options.push((arg, value));
            } else {
                cli.positional.push(arg);
            }
        }
        Ok(cli)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Res<T> {
        match self.get(key) {
            Some(raw) => raw.parse().map_err(|_| format!("bad value {raw:?} for {key}")),
            None => default.ok_or_else(|| format!("{key} is required")),
        }
    }
}

fn real_main() -> Res<bool> {
    let cli = Cli::parse(std::env::args().skip(1))?;
    let smoke = cli.flags.iter().any(|f| f == "--smoke");
    let default_seconds = if smoke { 0.5 } else { f64::from(spec::RUN_SECONDS) };
    match cli.positional.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("compare") => match &cli.positional[1..] {
            [base, new] => report::compare(base.as_ref(), new.as_ref()),
            _ => Err("usage: benchmark compare <base.json> <new.json>".into()),
        },
        Some("run") => {
            let out: PathBuf = cli.parsed("--out", None)?;
            let seconds = cli.parsed("--seconds", Some(default_seconds))?;
            report::run(
                cli.parsed("--seed", None)?,
                seconds,
                smoke,
                cli.parsed("--sets", Some(1))?,
                &out,
            )
            .map(|()| true)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None => {
            let args = Args {
                workload: cli.parsed("--workload", None)?,
                seed: cli.parsed("--seed", None)?,
                seconds: cli.parsed("--seconds", Some(default_seconds))?,
                trace: cli.parsed::<u8>("--trace", Some(0))? != 0,
                smoke,
                work_dir: cli.get("--work-dir").map(PathBuf::from),
                trace_out: cli.get("--trace-out").map(PathBuf::from),
            };
            if let Some(phase) = cli.get("--phase") {
                return runner::run_phase(phase, &args).map(|()| true);
            }
            let outcome = runner::run_workload(&args)?;
            for (name, value, unit) in &outcome.metrics {
                println!("metric {} {name} {value:?} {unit}", outcome.workload);
            }
            println!("info {} flagged_set {}", outcome.workload, outcome.flagged_hash);
            for why in &outcome.failures {
                println!("info {} failure {why}", outcome.workload);
            }
            println!("{}", outcome.result_line());
            Ok(outcome.correct)
        }
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            std::process::exit(2);
        }
    }
}
