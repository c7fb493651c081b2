//! Set-up: everything a workload needs before its clock starts.
//!
//! Runs in a child process of its own, so the measured process starts
//! from generated files only — `batch_streamed` in particular never holds
//! the CSR the v4 image was encoded from. All inputs are a function of
//! `--seed`.

use crate::common::{read_web, Inputs, Truth, Web, GAMMA};
use crate::spec::Sizes;
use crate::util::{ctx, Layers, Res};
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_delta::StateDir;
use spammass_graph::{graph_to_bytes_v4, GraphBuilder};
use spammass_synth::scenario::{Scenario, ScenarioConfig};
use spammass_synth::stream::{generate_stream, StreamConfig};
use std::time::Instant;

/// Generates the inputs of `workload` under `inputs` and returns the
/// set-up time with the per-layer times it is made of.
pub fn run(workload: &str, seed: u64, sizes: &Sizes, inputs: &Inputs) -> Res<Layers> {
    let started = Instant::now();
    let mut layers = match workload {
        "batch_resident" => stream_web(seed, sizes, inputs, false)?,
        "batch_streamed" => stream_web(seed, sizes, inputs, true)?,
        "refresh" | "serve_point" | "serve_scan" => published_scenario(seed, sizes, inputs)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    layers.insert("setup_s".into(), started.elapsed().as_secs_f64());
    Ok(layers)
}

/// The 1M-host streamed-generator web as a shard directory; with
/// `encode_v4` also re-encoded to a compressed image in natural order, so
/// node ids (and therefore flagged sets) match the resident pipeline.
fn stream_web(seed: u64, sizes: &Sizes, inputs: &Inputs, encode_v4: bool) -> Res<Layers> {
    let mut layers = Layers::new();
    let t = Instant::now();
    let config = StreamConfig::sized(sizes.stream_hosts);
    ctx("generate_stream", generate_stream(&inputs.web(), &config, seed))?;
    layers.insert("synth.stream.generate_s".into(), t.elapsed().as_secs_f64());
    if encode_v4 {
        let Web { manifest, edges, .. } = read_web(&inputs.web())?;
        let graph = GraphBuilder::from_edges(manifest.nodes as usize, &edges);
        drop(edges);
        let t = Instant::now();
        let image = graph_to_bytes_v4(&graph);
        layers.insert("graph.compress.encode_v4_s".into(), t.elapsed().as_secs_f64());
        // Both orientations, all framing included.
        let bits = image.len() as f64 * 8.0 / (2.0 * graph.edge_count() as f64);
        layers.insert("graph.compress.v4_bits_per_edge".into(), bits);
        ctx("write v4 image", std::fs::write(inputs.v4(), &image))?;
    }
    Ok(layers)
}

/// The 300k-host scenario, estimated and published as generation 1, with
/// its ground truth and the journal steps `refresh` replays.
fn published_scenario(seed: u64, sizes: &Sizes, inputs: &Inputs) -> Res<Layers> {
    let mut layers = Layers::new();
    let config = ScenarioConfig::sized(sizes.scenario_hosts).with_evolve_steps(sizes.evolve_steps);
    let t = Instant::now();
    let scenario = Scenario::generate(&config, seed);
    layers.insert("synth.scenario.generate_s".into(), t.elapsed().as_secs_f64());
    let evolution = scenario.evolve(&config, seed);
    let records: usize = evolution.steps.iter().map(|s| s.len()).sum();
    layers.insert("synth.evolve.records".into(), records as f64);

    let core = scenario.section_4_2_core();
    let estimate = ctx(
        "base estimate",
        MassEstimator::new(EstimatorConfig::scaled(GAMMA)).estimate(&scenario.graph, &core),
    )?;
    let state = StateDir::new(inputs.state());
    let generation = ctx(
        "publish generation 1",
        state.save(&scenario.graph, &core, &estimate.pagerank, &estimate.core_pagerank),
    )?;
    if generation != 1 {
        return Err(format!("fresh state published generation {generation}, not 1"));
    }
    Truth::write(&inputs.truth(), scenario.graph.node_count(), &scenario.spam_nodes())?;
    ctx("write evolve journal", std::fs::write(inputs.evolve(), evolution.journal_bytes()))
        .map(|()| layers)
}
