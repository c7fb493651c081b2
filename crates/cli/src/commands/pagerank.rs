//! `spammass pagerank` — solve PageRank and print the top hosts.

use crate::args::ParsedArgs;
use crate::loading::{
    display_node, ingest_warning, load_graph_with, load_labels, node_ordering, read_options,
    require_hosts,
};
use crate::CliError;
use spammass_graph::{NodeOrdering, Permutation};
use spammass_pagerank::{JumpVector, PageRankConfig, SolverChain, SolverKind};
use std::fmt::Write as _;
use std::path::Path;

fn solver_kind(name: &str) -> Result<SolverKind, CliError> {
    match name {
        "jacobi" => Ok(SolverKind::Jacobi),
        "gauss-seidel" => Ok(SolverKind::GaussSeidel),
        "power" => Ok(SolverKind::Power),
        "parallel" => Ok(SolverKind::ParallelJacobi),
        other => Err(CliError::Usage(format!(
            "unknown solver {other:?} (jacobi, gauss-seidel, power, parallel)"
        ))),
    }
}

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "graph",
        "solver",
        "damping",
        "tolerance",
        "top",
        "threads",
        "edges-per-thread",
        "labels",
        "order",
        "lenient",
        "fallback",
        "trace",
        "metrics-out",
        "serve-metrics",
        "serve-linger",
        "crash-dump",
    ])?;
    let opts = read_options(args)?;
    let (graph, load_report) = load_graph_with(Path::new(args.required("graph")?), &opts)?;
    require_hosts(graph.node_count(), "--graph")?;
    // Solve in the requested cache-friendly layout; scores are mapped
    // back below so ranks and labels stay in original node ids.
    let ordering = node_ordering(args)?;
    let perm = match ordering {
        NodeOrdering::Natural => None,
        other => Some(Permutation::compute(&graph, other)),
    };
    let graph = match &perm {
        None => graph,
        Some(p) => p.permute_graph(&graph),
    };
    let labels = match args.optional("labels") {
        Some(p) => Some(load_labels(Path::new(p))?),
        None => None,
    };
    let damping: f64 = args.parsed_or("damping", 0.85)?;
    let tolerance: f64 = args.parsed_or("tolerance", 1e-12)?;
    let top: usize = args.parsed_or("top", 20)?;
    let fallback: bool = args.parsed_or("fallback", false)?;
    let threads: usize = args.parsed_or("threads", 0)?;
    let edges_per_thread: usize = args.parsed_or("edges-per-thread", 0)?;
    let solver = args.optional("solver").unwrap_or("jacobi");
    let kind = solver_kind(solver)?;

    let cfg = PageRankConfig::with_damping(damping)
        .tolerance(tolerance)
        .max_iterations(500)
        .threads(threads)
        .edges_per_thread(edges_per_thread);
    cfg.validate().map_err(|e| CliError::Usage(e.to_string()))?;
    let jump = JumpVector::Uniform;

    let mut out = String::new();
    if let Some(warn) = ingest_warning(load_report.as_ref()) {
        let _ = writeln!(out, "{warn}");
    }

    let mut result = if fallback {
        // Chosen solver first, then the hardened fallback attempts.
        let mut chain = SolverChain::new(kind, cfg);
        for (s, c) in SolverChain::recommended(cfg).attempts().iter().skip(1) {
            chain = chain.then(*s, *c);
        }
        let solve = chain.solve(&graph, &jump)?;
        if solve.degraded() {
            for attempt in &solve.attempts {
                let _ = writeln!(out, "attempt: {attempt}");
            }
        }
        solve.result
    } else {
        kind.solve(&graph, &jump, &cfg).map_err(|e| {
            CliError::Compute(format!("{e}; rerun with --fallback true to retry harder"))
        })?
    };
    if let Some(p) = &perm {
        result.scores = p.restore_values(&result.scores);
    }

    let _ = writeln!(
        out,
        "{solver}: {} iterations, residual {:.2e}, converged: {}",
        result.iterations, result.residual, result.converged
    );
    if solver == "power" {
        let _ = writeln!(
            out,
            "note: power iteration returns the normalized stationary distribution;\n\
             the n/(1-c) display scale matches the linear solvers only on\n\
             dangling-free graphs"
        );
    }
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
    fn all_solvers_rank_the_hub_first() {
        let g = graph_file("pagerank-all-solvers");
        for solver in ["jacobi", "gauss-seidel", "power", "parallel"] {
            let out = run_on(&g, &["--solver", solver, "--top", "1"]).unwrap();
            let hub_line = out
                .lines()
                .find(|l| l.trim_start().starts_with("1 "))
                .unwrap_or_else(|| panic!("{solver}: no rank line in {out:?}"));
            assert!(hub_line.trim_end().ends_with('3'), "{solver}: {hub_line}");
        }
    }

    #[test]
    fn rejects_bad_solver_damping_and_removed_flags() {
        let g = graph_file("pagerank-rejects");
        assert!(matches!(run_on(&g, &["--solver", "magic"]), Err(CliError::Usage(_))));
        assert!(matches!(run_on(&g, &["--damping", "1.5"]), Err(CliError::Usage(_))));
        assert!(matches!(run_on(&g, &["--kernel", "scalar"]), Err(CliError::Usage(_))));
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
        // decays at exactly rate c per iteration. Damping close to 1
        // therefore cannot converge within the command's 500-iteration
        // cap, while the fallback chain's relaxed-damping attempt can.
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
    fn non_convergence_is_a_typed_failure_with_hint() {
        let err = run_on(&cycle_file("pagerank-non-convergence"), &["--damping", "0.999999999"])
            .unwrap_err();
        match err {
            CliError::Compute(m) => {
                assert!(m.contains("did not converge"), "{m}");
                assert!(m.contains("--fallback"), "{m}");
            }
            other => panic!("expected Compute error, got {other:?}"),
        }
    }

    #[test]
    fn fallback_chain_recovers_and_reports_attempts() {
        // The primary and Gauss–Seidel attempts drown at c ≈ 1; the
        // relaxed-damping attempt converges and every attempt is reported.
        let cycle = cycle_file("pagerank-fallback-cycle");
        let out = run_on(&cycle, &["--damping", "0.999999999", "--fallback", "true"]).unwrap();
        assert!(out.contains("attempt:"), "{out}");
        assert!(out.contains("did not converge"), "{out}");
        assert!(out.contains("converged in"), "{out}");
        assert!(out.contains("converged: true"), "{out}");
        // Healthy run with fallback enabled: no attempt chatter.
        let quiet =
            run_on(&graph_file("pagerank-fallback-quiet"), &["--fallback", "true"]).unwrap();
        assert!(!quiet.contains("attempt:"), "{quiet}");
        assert!(quiet.contains("converged: true"), "{quiet}");
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
