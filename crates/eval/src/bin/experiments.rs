//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [OPTIONS] <EXPERIMENT>...
//!
//! EXPERIMENTS: fig1 table1 graph-stats table2 fig3 fig4 fig5 fig6
//!              anomaly absolute-mass naive trustrank all
//!
//! OPTIONS:
//!   --hosts N      approximate host count          (default 60000)
//!   --seed S       generator seed                  (default 20060131)
//!   --rho R        scaled PageRank threshold       (default 10)
//!   --gamma G      good-fraction estimate          (default 0.85)
//!   --csv DIR      also write each table as CSV into DIR
//!   --trace        print a span timing tree to stderr when done
//! ```

use spammass_eval::context::{Context, ExperimentOptions};
use spammass_eval::experiments as exp;
use spammass_eval::report::Table;
use spammass_obs as obs;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((opts, names, trace)) => {
            if trace {
                let collector = obs::Collector::builder().build();
                {
                    let _guard = collector.install();
                    run_all(opts, &names);
                }
                eprint!("{}", collector.render_tree());
            } else {
                run_all(opts, &names);
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: experiments [--hosts N] [--seed S] [--rho R] [--gamma G] [--csv DIR] [--trace] <experiment>...");
            eprintln!("experiments: fig1 table1 graph-stats table2 fig3 fig4 fig5 fig6 anomaly absolute-mass naive trustrank scaling gamma combined baselines convergence all");
            ExitCode::FAILURE
        }
    }
}

/// Diagnostic: class composition of the candidate pool and the PageRank
/// distribution of good hosts (not a paper artefact; useful when tuning
/// the generator).
fn pool_debug(ctx: &Context) -> Vec<Table> {
    use std::collections::BTreeMap;
    let mut by_class: BTreeMap<String, usize> = BTreeMap::new();
    for &x in &ctx.pool {
        let label = exp::class_name(&ctx.scenario.truth, x);
        let key = label.split('(').next().unwrap_or(&label).to_string();
        *by_class.entry(key).or_default() += 1;
    }
    let mut t = Table::new("pool composition by class", &["class", "count"]);
    for (k, v) in by_class {
        t.push_row(vec![k, v.to_string()]);
    }
    let mut boosters: Vec<(f64, String)> = ctx
        .pool
        .iter()
        .filter(|&&x| exp::class_name(&ctx.scenario.truth, x).starts_with("spam:booster"))
        .map(|&x| {
            (
                ctx.estimate.scaled_pagerank(x),
                format!(
                    "{} in={} out={}",
                    exp::class_name(&ctx.scenario.truth, x),
                    ctx.scenario.graph.in_degree(x),
                    ctx.scenario.graph.out_degree(x)
                ),
            )
        })
        .collect();
    boosters.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut tb = Table::new("pool boosters (top 10)", &["scaled p", "detail"]);
    for (p, d) in boosters.into_iter().take(10) {
        tb.push_row(vec![format!("{p:.1}"), d]);
    }
    let mut tm = Table::new("mega hosts", &["host", "scaled p", "scaled p'", "m~"]);
    for &m in &ctx.scenario.good_web.mega_hosts {
        tm.push_row(vec![
            ctx.scenario.labels.name(m).map(|h| h.to_string()).unwrap_or_default(),
            format!("{:.1}", ctx.estimate.scaled_pagerank(m)),
            format!("{:.1}", ctx.estimate.scaled_core_pagerank(m)),
            format!("{:.3}", ctx.estimate.relative_of(m)),
        ]);
    }
    let mut good_pr: Vec<f64> = ctx
        .scenario
        .graph
        .nodes()
        .filter(|&x| ctx.scenario.truth.is_good(x))
        .map(|x| ctx.estimate.scaled_pagerank(x))
        .collect();
    good_pr.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let mut t2 = Table::new("good-host scaled PageRank (top ranks)", &["rank", "scaled p"]);
    for r in [1usize, 2, 5, 10, 20, 50, 100, 200, 500] {
        if r <= good_pr.len() {
            t2.push_row(vec![r.to_string(), format!("{:.2}", good_pr[r - 1])]);
        }
    }
    vec![t, tb, tm, t2]
}

fn parse(args: &[String]) -> Result<(ExperimentOptions, Vec<String>, bool), String> {
    let mut opts = ExperimentOptions::default();
    let mut names = Vec::new();
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--hosts" => {
                opts.hosts = take("--hosts")?.parse().map_err(|e| format!("--hosts: {e}"))?
            }
            "--seed" => opts.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--rho" => opts.rho = take("--rho")?.parse().map_err(|e| format!("--rho: {e}"))?,
            "--gamma" => {
                opts.gamma = take("--gamma")?.parse().map_err(|e| format!("--gamma: {e}"))?
            }
            "--csv" => opts.csv_dir = Some(PathBuf::from(take("--csv")?)),
            "--trace" => trace = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        return Err("no experiment named".into());
    }
    Ok((opts, names, trace))
}

const CONTEXT_FREE: &[&str] = &["fig1", "table1", "naive"];
const ALL: &[&str] = &[
    "fig1",
    "table1",
    "naive",
    "graph-stats",
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "anomaly",
    "absolute-mass",
    "trustrank",
    "scaling",
    "gamma",
    "combined",
    "baselines",
    "convergence",
];

fn run_all(opts: ExperimentOptions, names: &[String]) {
    let names: Vec<String> = if names.iter().any(|n| n == "all") {
        ALL.iter().map(|s| s.to_string()).collect()
    } else {
        names.to_vec()
    };

    // Reject unknown names before the (expensive) scenario generation.
    for name in &names {
        if !ALL.contains(&name.as_str()) && name != "pool" {
            eprintln!("error: unknown experiment {name:?}");
            eprintln!("experiments: {} pool all", ALL.join(" "));
            std::process::exit(1);
        }
    }

    // Build the (expensive) shared context only if some experiment needs it.
    let needs_ctx = names.iter().any(|n| !CONTEXT_FREE.contains(&n.as_str()));
    let ctx = if needs_ctx {
        eprintln!(
            "# generating scenario: ~{} hosts, seed {}, rho {}, gamma {}",
            opts.hosts, opts.seed, opts.rho, opts.gamma
        );
        let ctx = Context::build(opts.clone());
        eprintln!(
            "# graph: {} nodes, {} edges; pool |T| = {}; core |V+| = {}",
            ctx.scenario.graph.node_count(),
            ctx.scenario.graph.edge_count(),
            ctx.pool.len(),
            ctx.core.len()
        );
        Some(ctx)
    } else {
        None
    };

    for name in &names {
        let span_name = format!("eval.experiment.{name}");
        let mut span = obs::span(&span_name);
        let tables: Vec<Table> = match name.as_str() {
            "fig1" => exp::fig1::run(),
            "table1" => exp::table1::run(),
            "naive" => exp::naive_schemes::run(),
            "graph-stats" => exp::graph_stats::run(ctx.as_ref().expect("ctx")),
            "table2" | "fig3" => exp::table2_fig3::run(ctx.as_ref().expect("ctx")),
            "fig4" => exp::fig4::run(ctx.as_ref().expect("ctx")),
            "fig5" => exp::fig5::run(ctx.as_ref().expect("ctx")),
            "fig6" => exp::fig6::run(ctx.as_ref().expect("ctx")),
            "anomaly" => exp::anomaly::run(ctx.as_ref().expect("ctx")),
            "absolute-mass" => exp::absolute_mass::run(ctx.as_ref().expect("ctx")),
            "trustrank" => exp::trustrank_cmp::run(ctx.as_ref().expect("ctx")),
            "pool" => pool_debug(ctx.as_ref().expect("ctx")),
            "scaling" => exp::ablations::scaling(ctx.as_ref().expect("ctx")),
            "gamma" => exp::ablations::gamma_sweep(ctx.as_ref().expect("ctx")),
            "combined" => exp::ablations::combined_cores(ctx.as_ref().expect("ctx")),
            "baselines" => exp::baselines_cmp::run(ctx.as_ref().expect("ctx")),
            "convergence" => exp::convergence::run(ctx.as_ref().expect("ctx")),
            other => {
                eprintln!("warning: unknown experiment {other:?}, skipping");
                continue;
            }
        };
        span.record("tables", tables.len() as f64);
        drop(span);
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.render());
            if let Some(dir) = &opts.csv_dir {
                let file = format!("{}-{}", name.replace(' ', "-"), i);
                if let Err(e) = table.write_csv(dir, &file) {
                    eprintln!("warning: could not write {file}.csv: {e}");
                }
            }
        }
    }
}
