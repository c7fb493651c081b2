//! `spammass pagerank` — solve PageRank and print the top hosts.

use crate::args::ParsedArgs;
use crate::loading::{
    display_node, ingest_warning, load_graph_with, load_labels, read_options, require_hosts,
};
use crate::CliError;
use spammass_pagerank::{solve_columns, JumpVector, PageRankConfig};
use std::fmt::Write as _;
use std::path::Path;

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "graph",
        "damping",
        "tolerance",
        "top",
        "threads",
        "edges-per-thread",
        "labels",
        "lenient",
        "trace",
        "metrics-out",
        "serve-metrics",
        "serve-linger",
        "crash-dump",
    ])?;
    let opts = read_options(args)?;
    let (graph, load_report) = load_graph_with(Path::new(args.required("graph")?), &opts)?;
    require_hosts(graph.node_count(), "--graph")?;
    let labels = match args.optional("labels") {
        Some(p) => Some(load_labels(Path::new(p))?),
        None => None,
    };
    let damping: f64 = args.parsed_or("damping", 0.85)?;
    let tolerance: f64 = args.parsed_or("tolerance", 1e-12)?;
    let top: usize = args.parsed_or("top", 20)?;
    let threads: usize = args.parsed_or("threads", 0)?;
    let edges_per_thread: usize = args.parsed_or("edges-per-thread", 0)?;

    let cfg = PageRankConfig::with_damping(damping)
        .tolerance(tolerance)
        .max_iterations(500)
        .threads(threads)
        .edges_per_thread(edges_per_thread);
    cfg.validate().map_err(|e| CliError::Usage(e.to_string()))?;

    let mut out = String::new();
    if let Some(warn) = ingest_warning(load_report.as_ref()) {
        let _ = writeln!(out, "{warn}");
    }

    let mut solve = solve_columns(&graph, &[JumpVector::Uniform], None, &cfg)?;
    if solve.attempts.len() > 1 {
        for attempt in &solve.attempts {
            let _ = writeln!(out, "attempt: {attempt}");
        }
    }
    let result = solve.columns.pop().expect("one jump vector yields one column");

    let _ = writeln!(
        out,
        "engine: {} iterations, residual {:.2e}, converged: {}",
        result.iterations, result.residual, result.converged
    );
    let view = result.scores_view(&cfg);
    let _ = writeln!(out, "{:>6}  {:>12}  host", "rank", "scaled p");
    for (rank, (node, _)) in view.top_k(top).into_iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>6}  {:>12.2}  {}",
            rank + 1,
            view.scaled(node),
            display_node(labels.as_ref(), node)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_graph::{io, GraphBuilder};

    /// A hub graph (everything points at node 3) in `test`'s own
    /// scratch directory.
    fn graph_file(test: &str) -> std::path::PathBuf {
        let g = GraphBuilder::from_edges(4, &[(0, 3), (1, 3), (2, 3)]);
        let p = crate::test_dir(test).join("g.bin");
        std::fs::write(&p, io::graph_to_bytes_v3(&g)).unwrap();
        p
    }

    #[test]
    fn ranks_the_hub_first() {
        let out = run_on(&graph_file("pagerank-hub"), &["--top", "1"]).unwrap();
        let hub_line = out.lines().find(|l| l.trim_start().starts_with("1 ")).expect("a rank line");
        assert!(hub_line.trim_end().ends_with('3'), "{hub_line}");
        assert!(!out.contains("attempt:"), "a healthy run has no attempt chatter: {out}");
        assert!(out.contains("converged: true"), "{out}");
    }

    #[test]
    fn rejects_bad_damping_and_removed_flags() {
        let g = graph_file("pagerank-rejects");
        assert!(matches!(run_on(&g, &["--damping", "1.5"]), Err(CliError::Usage(_))));
        for removed in [
            ["--solver", "parallel"],
            ["--fallback", "true"],
            ["--kernel", "scalar"],
            ["--order", "degree"],
        ] {
            match run_on(&g, &removed) {
                Err(CliError::Usage(m)) => assert!(m.contains(removed[0]), "{m}"),
                other => panic!("{removed:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_graph_is_refused() {
        // A zero-length file is a valid empty edge list; solving it would
        // "converge" on nothing.
        let p = crate::test_dir("pagerank-empty").join("empty.txt");
        std::fs::write(&p, "").unwrap();
        match run_on(&p, &[]) {
            Err(CliError::Usage(m)) => assert!(m.contains("no hosts"), "{m}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    fn cycle_file(test: &str) -> std::path::PathBuf {
        // Bipartite star with unequal sides ({0} vs {1, 2}): the
        // transition matrix has eigenvalue -1 and the uniform jump vector
        // is unbalanced across the bipartition, so the Jacobi residual
        // decays at exactly rate c per iteration and the engine's in-place
        // sweep at about c² — how many sweeps a damping factor needs is
        // about ln(ε)/(2·ln c), against the command's 500-iteration cap.
        let g = GraphBuilder::from_edges(3, &[(0, 1), (0, 2), (1, 0), (2, 0)]);
        let p = crate::test_dir(test).join("cycle.bin");
        std::fs::write(&p, io::graph_to_bytes_v3(&g)).unwrap();
        p
    }

    fn run_on(path: &std::path::Path, extra: &[&str]) -> Result<String, CliError> {
        let mut v =
            vec!["pagerank".to_string(), "--graph".to_string(), path.to_str().unwrap().to_string()];
        v.extend(extra.iter().map(|s| s.to_string()));
        run(&ParsedArgs::parse(&v).unwrap())
    }

    #[test]
    fn non_convergence_is_a_typed_failure_naming_both_attempts() {
        // c ≈ 1 needs ~1e10 sweeps: out of reach for the retry too.
        let err = run_on(&cycle_file("pagerank-non-convergence"), &["--damping", "0.999999999"])
            .unwrap_err();
        match err {
            CliError::Compute(m) => {
                assert!(m.contains("solve failed after 2 attempts"), "{m}");
                assert!(m.contains("cap=500: did not converge"), "{m}");
                assert!(m.contains("c=0.999999999, cap=100501"), "{m}");
            }
            other => panic!("expected Compute error, got {other:?}"),
        }
    }

    #[test]
    fn a_tight_cap_is_retried_and_both_attempts_are_printed() {
        // c = 0.98 needs ~580 in-place sweeps for 1e-12: the 500-sweep
        // attempt fails, the second gets the cap its residual asks for,
        // and the scores are for c = 0.98 all the same.
        let out = run_on(&cycle_file("pagerank-retry"), &["--damping", "0.98"]).unwrap();
        let attempts: Vec<&str> = out.lines().filter(|l| l.starts_with("attempt:")).collect();
        assert_eq!(attempts.len(), 2, "{out}");
        assert!(attempts[0].contains("c=0.98, cap=500: did not converge"), "{out}");
        assert!(attempts[1].contains("c=0.98, cap=") && attempts[1].contains("converged in"));
        assert!(out.contains("converged: true"), "{out}");
    }

    #[test]
    fn lenient_flag_surfaces_skipped_lines() {
        let p = crate::test_dir("pagerank-lenient").join("messy.txt");
        std::fs::write(&p, "0 1\nnot an edge\n1 0\n").unwrap();
        let argv: Vec<String> = ["pagerank", "--graph", p.to_str().unwrap(), "--lenient", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&ParsedArgs::parse(&argv).unwrap()).unwrap();
        assert!(out.contains("warning:"), "{out}");
        assert!(out.contains("1 skipped"), "{out}");
    }
}
