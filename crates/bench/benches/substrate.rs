//! Substrate performance: how fast the simulator itself runs. Not a
//! paper figure, but it bounds how cheaply the figure binaries can run
//! their 600-second experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use speakup_net::link::LinkConfig;
use speakup_net::packet::NodeId;
use speakup_net::sim::{flow_id, App, Ctx, Simulator};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::topology::TopologyBuilder;
use std::hint::black_box;

struct Blaster {
    dst: NodeId,
    bytes: u64,
}

impl App for Blaster {
    fn start(&mut self, ctx: &mut Ctx) {
        let f = ctx.open_default_flow(self.dst);
        ctx.send(f, self.bytes, 1);
    }
}

#[derive(Default)]
struct Sink;
impl App for Sink {}

fn bench_bulk_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_bulk_transfer");
    let bytes: u64 = 10 << 20; // 10 MB over a 100 Mbit/s link ≈ 0.9 sim-seconds
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(20);
    g.bench_function("one_flow_100mbps", |b| {
        b.iter(|| {
            let mut tb = TopologyBuilder::new();
            let a = tb.node();
            let z = tb.node();
            tb.duplex(
                a,
                z,
                LinkConfig::new(100_000_000, SimDuration::from_millis(5)),
            );
            let mut sim = Simulator::new(tb.build(), 1);
            sim.add_app(a, Box::new(Blaster { dst: z, bytes }));
            sim.add_app(z, Box::new(Sink));
            sim.run_until(SimTime::from_secs(30));
            let f = sim.world().sender(flow_id(a, 0));
            assert_eq!(f.acked_bytes(), bytes);
            black_box(f.stats.segments_sent)
        })
    });
    g.finish();
}

fn bench_many_flows(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_fan_in");
    g.sample_size(10);
    for n in [10usize, 50] {
        g.bench_with_input(BenchmarkId::new("clients", n), &n, |b, &n| {
            b.iter(|| {
                let mut tb = TopologyBuilder::new();
                let hub = tb.node();
                let z = tb.node();
                tb.duplex(
                    hub,
                    z,
                    LinkConfig::new(1_000_000_000, SimDuration::from_micros(100)),
                );
                let clients: Vec<NodeId> = (0..n)
                    .map(|_| {
                        let cnode = tb.node();
                        tb.duplex(
                            cnode,
                            hub,
                            LinkConfig::new(2_000_000, SimDuration::from_micros(500)),
                        );
                        cnode
                    })
                    .collect();
                let mut sim = Simulator::new(tb.build(), 2);
                for &cn in &clients {
                    sim.add_app(
                        cn,
                        Box::new(Blaster {
                            dst: z,
                            bytes: 1 << 20,
                        }),
                    );
                }
                sim.add_app(z, Box::new(Sink));
                sim.run_until(SimTime::from_secs(10));
                black_box(sim.world().flow_count())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bulk_transfer, bench_many_flows);
criterion_main!(benches);
