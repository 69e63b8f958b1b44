//! Shard-count invariance: the headline guarantee of the sharded engine.
//!
//! A shard is a thinner replica island, so a run splits only when it has
//! more than one replica. For every simulated registry entry, each
//! auction-mode grid point run with at least two replicas must produce
//! a *byte-identical* report at `--shards 1` and `--shards 2` —
//! sharding may only change wall-clock time, never results. (The
//! lookahead-barrier "never deliver early" property is asserted inside
//! the engine on every exchange and unit-tested in `speakup-net`.)

use speakup_exp::driver::{entry_json, execute, report_json};
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
        thinners: Some(2),
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
        for mut sc in entry.build_grid() {
            if !matches!(sc.mode, Mode::Auction) {
                continue;
            }
            sc.thinners = sc.thinners.max(2);
            // A 10^5-client crowd runs ~1.5·10^7 events in its first
            // 250 ms alone (start-up burst and two digest epochs), more
            // than every other grid point here over 2 s.
            sc.duration = if sc.population() > 10_000 {
                SimDuration::from_millis(250)
            } else {
                SimDuration::from_secs(2)
            };
            let single = run_sharded(&sc, 1);
            let sharded = run_sharded(&sc, 2);
            assert_eq!(
                report_json(&single).pretty(),
                report_json(&sharded).pretty(),
                "{} ({}): reports differ between --shards 1 and --shards 2",
                entry.name,
                sc.name
            );
            assert_eq!(sharded.shard_events.len(), 2, "{}", sc.name);
            // The queue high-water mark rides along per shard: a shard
            // that ran an event had at least one filed.
            for r in [&single, &sharded] {
                assert_eq!(r.queue_peak.len(), r.shard_events.len(), "{}", sc.name);
                for (shard, (&events, &peak)) in
                    r.shard_events.iter().zip(&r.queue_peak).enumerate()
                {
                    assert!(
                        events == 0 || peak >= 1,
                        "{} ({}): shard {shard} ran {events} events on an empty queue",
                        entry.name,
                        r.name
                    );
                }
                // So do the flow tables' counts: a flow has two halves,
                // so no shard layout can hold more than twice the flows
                // opened.
                assert_eq!(r.flows_opened.len(), r.shard_events.len(), "{}", sc.name);
                assert_eq!(r.flows_peak.len(), r.shard_events.len(), "{}", sc.name);
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
}

#[test]
fn replicates_are_shard_count_invariant_too() {
    // Seed replicates exercise the worker pool + sharding together, on
    // two replica islands per auction point.
    let entry = registry::find("flash_crowd").expect("registered");
    let mut with_seeds = opts(2, 1);
    with_seeds.seeds = 3;
    let mut sharded = opts(2, 2);
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
fn replica_islands_balance_events_across_shards() {
    // fig2 at R = 4, sync 10 ms: each shard holds whole replica islands,
    // so none runs more than its even share of the events + 5 points
    // (0.267 at K = 4; K = 8 clamps to 4 shards).
    const R: u32 = 4;
    let sc = scenarios::fig2(0.5, Mode::Auction)
        .duration(SimDuration::from_secs(5))
        .thinners(R)
        .sync_period(SimDuration::from_millis(10));
    for shards in [4u32, 8] {
        let report = run_sharded(&sc, shards);
        let total: u64 = report.shard_events.iter().sum();
        let largest = report.shard_events.iter().copied().max().unwrap_or(0);
        let share = largest as f64 / total as f64;
        assert!(
            share <= 1.0 / f64::from(shards.min(R)) + 0.05,
            "--shards {shards}: one shard ran {share:.3} of the events {:?}",
            report.shard_events
        );
    }
}

#[test]
fn dispatch_counts_are_shard_invariant_and_fully_devirtualized() {
    // The devirtualized `AppSet` layer tallies events per app variant.
    // Two checks ride on those counters: sharding must not change what
    // gets dispatched where (the counts are part of the deterministic
    // outcome, not a scheduling artifact), and a scenario built from
    // registry agents dispatches through the closed enum alone, whose
    // variants are exactly the four production agents.
    let mut sc = scenarios::fig2(0.5, Mode::Auction).thinners(2);
    sc.duration = SimDuration::from_secs(2);
    let single = run_sharded(&sc, 1);
    let sharded = run_sharded(&sc, 2);
    assert_eq!(
        single.dispatch_counts, sharded.dispatch_counts,
        "per-variant dispatch counts differ between --shards 1 and --shards 2"
    );
    let names: Vec<&str> = single.dispatch_counts.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, ["thinner", "web", "wget", "cohort"]);
    let concrete: u64 = single.dispatch_counts.iter().map(|(_, n)| n).sum();
    assert!(concrete > 0, "no concrete-variant dispatches recorded");
}
