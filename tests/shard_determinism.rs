//! Shard-count invariance: the headline guarantee of the sharded engine.
//!
//! For every simulated registry entry, running the whole grid with
//! `--shards 1` and `--shards 4` must produce *byte-identical* human
//! tables and JSON reports — sharding may only change wall-clock time,
//! never results. (The lookahead-barrier "never deliver early" property
//! is asserted inside the engine on every exchange and unit-tested in
//! `speakup-net`.)

use speakup_exp::driver::{entry_json, execute};
use speakup_exp::registry::{self, RunOptions};
use speakup_exp::runner::run_sharded;
use speakup_exp::scenario::Mode;
use speakup_exp::scenarios;
use speakup_net::time::SimDuration;

fn opts(seconds: u64, shards: u32) -> RunOptions {
    RunOptions {
        duration: Some(SimDuration::from_secs(seconds)),
        seed: 0x5ea4,
        seeds: 1,
        jobs: Some(1),
        shards,
        thinners: None,
        sync_period: None,
        faults: Vec::new(),
    }
}

#[test]
fn every_entry_is_shard_count_invariant() {
    for entry in registry::registry() {
        if !entry.is_simulated() {
            continue;
        }
        let single = execute(entry, &opts(2, 1));
        let sharded = execute(entry, &opts(2, 4));
        assert_eq!(
            single.table, sharded.table,
            "{}: human tables differ between --shards 1 and --shards 4",
            entry.name
        );
        let a = entry_json(&single, &opts(2, 1)).pretty();
        let b = entry_json(&sharded, &opts(2, 4)).pretty();
        assert_eq!(
            a, b,
            "{}: JSON reports differ between --shards 1 and --shards 4",
            entry.name
        );
        // The queue high-water mark rides along per shard: a shard that
        // ran an event had at least one filed.
        for r in single.reports.iter().chain(&sharded.reports) {
            assert_eq!(r.queue_peak.len(), r.shard_events.len(), "{}", entry.name);
            for (shard, (&events, &peak)) in r.shard_events.iter().zip(&r.queue_peak).enumerate() {
                assert!(
                    events == 0 || peak >= 1,
                    "{} ({}): shard {shard} ran {events} events on an empty queue",
                    entry.name,
                    r.name
                );
            }
            // So do the flow tables' counts: a flow has two halves, so
            // no shard layout can hold more than twice the flows opened.
            assert_eq!(r.flows_opened.len(), r.shard_events.len(), "{}", entry.name);
            assert_eq!(r.flows_peak.len(), r.shard_events.len(), "{}", entry.name);
            let opened: u64 = r.flows_opened.iter().sum();
            let peak: u64 = r.flows_peak.iter().sum();
            assert!(
                peak <= 2 * opened,
                "{} ({}): {peak} flow halves held for {opened} flows opened",
                entry.name,
                r.name
            );
        }
    }
}

#[test]
fn replicates_are_shard_count_invariant_too() {
    // Seed replicates exercise the worker pool + sharding together.
    let entry = registry::find("flash_crowd").expect("registered");
    let mut with_seeds = opts(2, 1);
    with_seeds.seeds = 3;
    let mut sharded = opts(2, 3);
    sharded.seeds = 3;
    let a = execute(entry, &with_seeds);
    let b = execute(entry, &sharded);
    assert_eq!(a.table, b.table);
    assert_eq!(
        entry_json(&a, &with_seeds).pretty(),
        entry_json(&b, &sharded).pretty()
    );
}

#[test]
fn shards_beyond_the_client_count_still_work() {
    // More shards than placement units: the runner clamps the shard
    // count (profiling has 10 single-client groups, so 16 clamps to 11)
    // instead of spinning node-less loops, without changing results.
    let entry = registry::find("profiling").expect("registered");
    let a = execute(entry, &opts(2, 1));
    let b = execute(entry, &opts(2, 16));
    assert_eq!(
        entry_json(&a, &opts(2, 1)).pretty(),
        entry_json(&b, &opts(2, 16)).pretty()
    );
}

#[test]
fn oversized_shard_requests_clamp_instead_of_spinning() {
    // Regression for the node-less-shard bug: fig2's 50 clients form 16
    // aggregation groups, so `--shards 64` must clamp to 17 event loops
    // (and warn once) rather than leave 47 empty shards hitting every
    // barrier window — while staying byte-identical to a single loop.
    let entry = registry::find("fig2").expect("registered");
    let single = execute(entry, &opts(2, 1));
    let oversized = execute(entry, &opts(2, 64));
    assert_eq!(
        single.table, oversized.table,
        "fig2: tables differ between --shards 1 and --shards 64"
    );
    assert_eq!(
        entry_json(&single, &opts(2, 1)).pretty(),
        entry_json(&oversized, &opts(2, 64)).pretty(),
        "fig2: JSON reports differ between --shards 1 and --shards 64"
    );
    for report in &oversized.reports {
        assert_eq!(
            report.shard_events.len(),
            17,
            "effective shard count should be 16 groups + infra shard 0"
        );
    }
}

#[test]
fn replica_islands_run_a_window_per_sync_period_and_exchange_only_digests() {
    // fig2_replicated's R = 2, sync 10 ms point at --shards 2: one
    // replica island per shard, joined by the control-only mesh alone.
    let secs = 3;
    let entry = registry::find("fig2_replicated").expect("registered");
    let mut sc = entry
        .build_grid()
        .into_iter()
        .find(|s| s.thinners == 2 && s.sync_period == SimDuration::from_millis(10))
        .expect("the grid has an R = 2, 10 ms point");
    sc.duration = SimDuration::from_secs(secs);
    let report = run_sharded(&sc, 2);
    let epochs = sc.duration.as_nanos() / sc.sync_period.as_nanos();

    // Windows follow the replicas' quiet floors, not the 500 µs mesh
    // delay (which would make ~2000 of them per simulated second).
    let ends = report.window_ends;
    let windows = (ends.by_peer + ends.by_own_send + ends.by_until + ends.by_floor) / 2;
    assert!(
        windows <= 3 * epochs,
        "{windows} windows for {epochs} epochs"
    );
    assert!(ends.by_floor > 0, "{ends:?}");

    // Both loops carry the load.
    let total: u64 = report.shard_events.iter().sum();
    assert_eq!(report.shard_events.len(), 2);
    for (shard, &events) in report.shard_events.iter().enumerate() {
        assert!(
            events * 5 >= total * 2,
            "shard {shard} ran {events} of {total} events"
        );
    }

    // Nothing but digests crosses: every epoch each replica sends one to
    // each peer, and with R replicas over K shards (island r on shard
    // r % K) a pair is cross-shard when its members differ mod K.
    let (r, k) = (u64::from(sc.thinners), 2);
    let cross_pairs = (0..r)
        .flat_map(|a| (a + 1..r).map(move |b| (a, b)))
        .filter(|(a, b)| a % k != b % k)
        .count() as u64;
    assert_eq!(report.cross_shard_events, epochs * cross_pairs * 2);
}

#[test]
fn dispatch_counts_are_shard_invariant_and_fully_devirtualized() {
    // The devirtualized `AppSet` layer tallies events per app variant.
    // Two checks ride on those counters: sharding must not change what
    // gets dispatched where (the counts are part of the deterministic
    // outcome, not a scheduling artifact), and a scenario built from
    // registry agents must route every callback through a concrete enum
    // variant — the `boxed` escape hatch exists for out-of-tree apps
    // and must stay cold in every shipped scenario.
    let mut sc = scenarios::fig2(0.5, Mode::Auction);
    sc.duration = SimDuration::from_secs(2);
    let single = run_sharded(&sc, 1);
    let sharded = run_sharded(&sc, 4);
    assert_eq!(
        single.dispatch_counts, sharded.dispatch_counts,
        "per-variant dispatch counts differ between --shards 1 and --shards 4"
    );
    let concrete: u64 = single
        .dispatch_counts
        .iter()
        .filter(|(name, _)| *name != "boxed")
        .map(|(_, n)| n)
        .sum();
    assert!(concrete > 0, "no concrete-variant dispatches recorded");
    for (name, count) in &single.dispatch_counts {
        if *name == "boxed" {
            assert_eq!(
                *count, 0,
                "fig2 dispatched {count} events through the boxed fallback"
            );
        }
    }
}
