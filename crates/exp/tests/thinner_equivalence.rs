//! Differential battery for replicated thinners.
//!
//! Two determinism obligations and one fidelity obligation:
//!
//! 1. `--thinners 1` is the classic engine, byte for byte: for each of
//!    the four golden workloads, an explicit single-replica run must
//!    serialize identically to the unmodified scenario, and at
//!    `--shards 8` it must still be one loop (one replica island).
//! 2. `--thinners R` for R > 1 is still a deterministic simulation: its
//!    report must be invariant to `--shards` (the digest exchange rides
//!    control payloads at path delay, so the conservative lookahead
//!    engine must not reorder it).
//! 3. Fairness regression: the replicated auction's good-client
//!    allocation must stay within the committed band of the R = 1
//!    baseline on the fig2_replicated grid.

use speakup_exp::driver::report_json;
use speakup_exp::registry::{find, FAIRNESS_BAND};
use speakup_exp::runner::{run_sharded, RunReport};
use speakup_exp::scenario::{Mode, Scenario};
use speakup_exp::scenarios;
use speakup_net::time::SimDuration;

/// The deterministic payload of one run, as the bytes `speakup run
/// --json` would emit for it.
fn payload(r: &RunReport) -> String {
    report_json(r).pretty()
}

/// One representative scenario per committed golden workload, shortened
/// so the 4 workloads × 2 shard widths battery stays test-suite sized.
fn golden_workloads() -> Vec<Scenario> {
    vec![
        scenarios::fig2(0.5, Mode::Auction).duration(SimDuration::from_secs(3)),
        scenarios::fig6().duration(SimDuration::from_secs(3)),
        scenarios::fig7(false).duration(SimDuration::from_secs(3)),
        scenarios::flash_crowd(Mode::Auction).duration(SimDuration::from_secs(3)),
    ]
}

#[test]
fn single_replica_is_byte_identical_to_the_classic_engine() {
    for sc in golden_workloads() {
        let classic = payload(&run_sharded(&sc, 1));
        for shards in [1u32, 8] {
            let explicit = run_sharded(&sc.clone().thinners(1), shards);
            assert_eq!(
                explicit.shard_events.len(),
                1,
                "{}: one replica island is one loop at --shards {shards}",
                sc.name
            );
            assert_eq!(
                classic,
                payload(&explicit),
                "{}: --thinners 1 --shards {shards} diverged from the classic engine",
                sc.name
            );
        }
    }
}

#[test]
fn replicated_runs_are_shard_invariant() {
    for r in [2u32, 4] {
        let sc = scenarios::fig2(0.5, Mode::Auction)
            .duration(SimDuration::from_secs(3))
            .thinners(r)
            .sync_period(SimDuration::from_millis(10));
        let base = payload(&run_sharded(&sc, 1));
        for shards in [2u32, 4, 8] {
            let sharded = payload(&run_sharded(&sc, shards));
            assert_eq!(
                base, sharded,
                "R={r}: report changed between --shards 1 and --shards {shards}"
            );
        }
    }
}

#[test]
fn replica_payloads_change_behavior_only_above_one() {
    // Control for test 1's sensitivity: the battery would be vacuous if
    // the serialization ignored what the replicas do. R=2 must actually
    // move at least one checked field vs R=1 on the same scenario.
    let sc = scenarios::fig2(0.5, Mode::Auction).duration(SimDuration::from_secs(3));
    let one = payload(&run_sharded(&sc, 1));
    let two = payload(&run_sharded(
        &sc.clone()
            .thinners(2)
            .sync_period(SimDuration::from_millis(10)),
        1,
    ));
    assert_ne!(one, two, "R=2 serialized identically to R=1");
}

#[test]
fn fairness_stays_within_the_committed_band() {
    // The fig2_replicated grid at a CI-sized duration: every replicated
    // point's good-client allocation within FAIRNESS_BAND of R=1. The
    // committed golden records the same band (fairness.band), which
    // `speakup compare` then checks structurally.
    let entry = find("fig2_replicated").expect("registered entry");
    let grid = entry.build_grid();
    let reports: Vec<RunReport> = grid
        .iter()
        .map(|sc| run_sharded(&sc.clone().duration(SimDuration::from_secs(10)), 1))
        .collect();
    let baseline = reports
        .iter()
        .find(|r| r.thinners == 1)
        .expect("R=1 baseline in the grid")
        .good_fraction();
    for r in &reports {
        let delta = (r.good_fraction() - baseline).abs();
        assert!(
            delta <= FAIRNESS_BAND,
            "{}: good allocation {:.3} drifted {delta:.3} from the R=1 \
             baseline {baseline:.3} (band {FAIRNESS_BAND})",
            r.name,
            r.good_fraction()
        );
    }
}
