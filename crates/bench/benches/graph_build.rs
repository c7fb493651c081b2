//! Graph substrate costs: CSR construction, reversal, statistics, and the
//! binary/text I/O round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use spammass_bench::Fixture;
use spammass_graph::stats::GraphStats;
use spammass_graph::{io, ByteStore, GraphBuilder, NodeId};
use std::hint::black_box;
use std::sync::Arc;

fn bench_build(c: &mut Criterion) {
    let fixture = Fixture::new(20_000);
    let edges: Vec<(u32, u32)> = fixture.graph().edges().map(|(f, t)| (f.0, t.0)).collect();
    let n = fixture.graph().node_count();

    c.bench_function("csr_build_20k_hosts", |b| {
        b.iter(|| {
            let mut builder = GraphBuilder::with_capacity(n, edges.len());
            for &(f, t) in &edges {
                builder.add_edge(NodeId(f), NodeId(t));
            }
            black_box(builder.build())
        })
    });

    c.bench_function("graph_reverse_20k", |b| b.iter(|| black_box(fixture.graph().reversed())));

    c.bench_function("graph_stats_20k", |b| {
        b.iter(|| black_box(GraphStats::compute(fixture.graph())))
    });
}

fn bench_io(c: &mut Criterion) {
    let fixture = Fixture::new(20_000);
    let image: Arc<dyn ByteStore> = Arc::new(io::graph_to_bytes_v3(fixture.graph()));

    c.bench_function("binary_encode_20k", |b| {
        b.iter(|| black_box(io::graph_to_bytes_v3(fixture.graph())))
    });
    c.bench_function("binary_decode_20k", |b| {
        b.iter(|| black_box(io::graph_from_image(image.clone()).unwrap()))
    });

    let mut text = Vec::new();
    io::write_edge_list(fixture.graph(), &mut text).unwrap();
    c.bench_function("text_decode_20k", |b| {
        b.iter(|| black_box(io::read_edge_list(&text[..]).unwrap()))
    });
}

criterion_group!(benches, bench_build, bench_io);
criterion_main!(benches);
