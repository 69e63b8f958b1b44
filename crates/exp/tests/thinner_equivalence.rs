//! Differential battery for replicated thinners.
//!
//! One determinism obligation and one fidelity obligation:
//!
//! 1. `--thinners R` for R > 1 is still a deterministic simulation: its
//!    report must be invariant to `--shards` (the digest exchange rides
//!    control payloads at path delay, so the conservative lookahead
//!    engine must not reorder it).
//! 2. Fairness regression: the replicated auction's good-client
//!    allocation must stay within the committed band of the R = 1
//!    baseline on the fig2_replicated grid.
//!
//! `--thinners 1` is the default, so a single-thinner run is the classic
//! engine by construction; the exact single-thinner goldens
//! (`tests/goldens.rs`) pin its reports, and the runner's
//! `oversized_shard_requests_clamp_to_the_{replica,unit}_count` tests
//! that it is one loop at `--shards 8`.

use speakup_exp::driver::report_json;
use speakup_exp::registry::{find, FAIRNESS_BAND};
use speakup_exp::runner::{run_sharded, RunReport};
use speakup_exp::scenario::Mode;
use speakup_exp::scenarios;
use speakup_net::time::SimDuration;

/// The deterministic payload of one run, as the bytes `speakup run
/// --json` would emit for it.
fn payload(r: &RunReport) -> String {
    report_json(r).pretty()
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
    // move at least one serialized field vs R=1 on the same scenario.
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
    // `tests/goldens.rs` then checks exactly.
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
