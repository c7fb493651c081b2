//! `spammass serve` — the snapshot-swapping spam-mass query daemon.
//!
//! Loads the state directory's current generation into an immutable,
//! mmap-backed snapshot and answers HTTP/JSON queries until stopped
//! (or until `--max-seconds`). With `--journal`, fresh journal records
//! are folded in by a warm in-process update and published as a new
//! generation; externally published generations are picked up too.
//! Either way the serving snapshot is swapped atomically — in-flight
//! requests finish on the generation they started on.

use crate::args::ParsedArgs;
use crate::CliError;
use spammass_core::detector::DetectorConfig;
use spammass_delta::StateDir;
use spammass_serve::{Reloader, ServeError, ServeOptions, Server};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn serve_error(e: ServeError) -> CliError {
    match e {
        ServeError::Io(io) => CliError::Io(io),
        ServeError::State(e) => CliError::Format(e.to_string()),
        ServeError::Graph(e) => CliError::Format(e.to_string()),
        ServeError::Estimate(e) => CliError::Compute(e.to_string()),
    }
}

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "state",
        "addr",
        "journal",
        "poll-ms",
        "gamma",
        "rho",
        "tau",
        "damping",
        "threads",
        "max-seconds",
        "trace",
        "metrics-out",
        "serve-metrics",
        "serve-linger",
        "crash-dump",
    ])?;
    let state = StateDir::new(args.required("state")?);
    let addr = args.optional("addr").unwrap_or("127.0.0.1:0").to_string();
    let journal = args.optional("journal").map(PathBuf::from);
    let poll_ms: u64 = args.parsed_or("poll-ms", 1000)?;
    let gamma: f64 = args.parsed_or("gamma", 0.85)?;
    if !(0.0..=1.0).contains(&gamma) {
        return Err(CliError::Usage(format!("--gamma {gamma} outside [0, 1]")));
    }
    let damping: f64 = args.parsed_or("damping", 0.85)?;
    if !(0.0..1.0).contains(&damping) {
        return Err(CliError::Usage(format!("--damping {damping} outside [0, 1)")));
    }
    let rho: f64 = args.parsed_or("rho", 10.0)?;
    let tau: f64 = args.parsed_or("tau", 0.98)?;
    let threads: usize = args.parsed_or("threads", 0)?;
    let max_seconds: u64 = args.parsed_or("max-seconds", 0)?;

    let detector = DetectorConfig { rho, tau };
    let reloader = Reloader::new(state, journal, detector, gamma, damping, threads);
    let options = ServeOptions { addr, poll: Duration::from_millis(poll_ms.max(1)) };
    let server = Server::start(options, reloader).map_err(serve_error)?;
    // The address line goes to stderr immediately (stdout is the
    // end-of-run report), so scripts can extract an ephemeral port
    // while the daemon is still running.
    eprintln!(
        "serving spam-mass queries on http://{}/ (generation {})",
        server.local_addr(),
        server.current_generation()
    );

    let started = Instant::now();
    let deadline = (max_seconds > 0).then(|| started + Duration::from_secs(max_seconds));
    loop {
        match deadline {
            Some(d) if Instant::now() >= d => break,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                std::thread::sleep(left.min(Duration::from_millis(100)));
            }
            // No deadline: the daemon runs until the process is killed.
            None => std::thread::sleep(Duration::from_secs(3600)),
        }
    }

    let final_generation = server.current_generation();
    drop(server);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: shut down after {:.1}s at generation {final_generation}",
        started.elapsed().as_secs_f64()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::{GraphBuilder, NodeId};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    fn parse(pairs: &[&str]) -> ParsedArgs {
        let mut v: Vec<String> = vec!["serve".to_string()];
        v.extend(pairs.iter().map(|s| s.to_string()));
        ParsedArgs::parse(&v).unwrap()
    }

    #[test]
    fn rejects_bad_flags() {
        let args = parse(&["--state", "/nonexistent", "--gamma", "2.0"]);
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args = parse(&["--state", "/nonexistent", "--damping", "1.0"]);
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        // Missing state directory is an I/O error, not a hang.
        let args = parse(&["--state", "/nonexistent/spammass-serve-cli"]);
        assert!(matches!(run(&args), Err(CliError::Io(_))));
    }

    #[test]
    fn serves_until_the_deadline_and_answers_queries() {
        let dir = crate::test_dir("serve-deadline");
        let g = GraphBuilder::from_edges(3, &[(1, 0), (2, 0)]);
        let state = StateDir::new(&dir);
        state.save(&g, &[NodeId(2)], &[0.5, 0.2, 0.3], &[0.1, 0.2, 0.3]).unwrap();

        let handle = std::thread::spawn(move || {
            run(&parse(&[
                "--state",
                dir.to_str().unwrap(),
                "--max-seconds",
                "2",
                "--threads",
                "1",
                "--rho",
                "1",
                "--tau",
                "0.5",
            ]))
        });
        // Discover the ephemeral port through the serving registry.
        let addr = loop {
            if let Some(addr) = spammass_serve::serving_addr() {
                break addr;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /score?node=0 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.contains("200"), "{status}");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("spammass.score_response/v1"), "{rest}");
        assert!(rest.contains("\"flagged\":true"), "{rest}");

        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("serve: shut down"), "{out}");
        assert!(out.contains("generation 1"), "{out}");
    }
}
