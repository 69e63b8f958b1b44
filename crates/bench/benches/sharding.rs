//! Shard-layer performance: the same replicated scenario run on one
//! event loop and split over K synchronized shard loops, one or more
//! replica islands each. Results are byte-identical by construction
//! (asserted here on a fingerprint), so the interesting number is the
//! per-shard-count runtime: cliffs in the barrier or cross-shard
//! exchange path show up as the K > 1 rows regressing against K = 1. CI
//! runs this with `--quick`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use speakup_exp::runner::{run, run_sharded};
use speakup_exp::scenario::{Mode, Scenario};
use speakup_exp::scenarios;
use speakup_net::time::SimDuration;
use std::hint::black_box;

const THINNERS: u32 = 4;

fn replicated() -> Scenario {
    scenarios::fig2(0.5, Mode::Auction)
        .duration(SimDuration::from_secs(5))
        .thinners(THINNERS)
        .sync_period(SimDuration::from_millis(10))
}

fn bench_shard_scaling(c: &mut Criterion) {
    let baseline = run(&replicated());
    let fingerprint = (
        baseline.allocation.good,
        baseline.allocation.bad,
        baseline.payment_bytes_total,
    );
    // The placement unit is the replica island — a replica with its
    // clients — one per shard, so the bar is balance: no shard above its
    // even share by more than 5 points.
    for shards in [4u32, 8] {
        let r = run_sharded(&replicated(), shards);
        let total = r.shard_events.iter().sum::<u64>().max(1) as f64;
        let share = r.shard_events.first().copied().unwrap_or(0) as f64 / total;
        let largest = r.shard_events.iter().copied().max().unwrap_or(0) as f64 / total;
        println!(
            "shard_scaling/replicated: fig2 thinners={THINNERS} shards={shards} \
             shard0_share={share:.3} largest_share={largest:.3} events={:?}",
            r.shard_events
        );
        assert!(
            largest <= 1.0 / f64::from(shards.min(THINNERS)) + 0.05,
            "fig2 with {THINNERS} thinner replicas concentrates {largest:.3} of all \
             events on one shard — replica-island placement regressed"
        );
    }
    let mut g = c.benchmark_group("shard_scaling");
    g.sample_size(10);
    for shards in [1u32, 2, 4] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &k| {
            b.iter(|| {
                let r = run_sharded(&replicated(), k);
                assert_eq!(
                    (r.allocation.good, r.allocation.bad, r.payment_bytes_total),
                    fingerprint,
                    "shard-count invariance broke under the bench scenario"
                );
                black_box(r.thinner_drops)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
