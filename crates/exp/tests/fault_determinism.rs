//! Fault-injection battery (ISSUE 10): determinism and failover fidelity.
//!
//! 1. A faulted run is still a deterministic simulation. Fault events
//!    enter the engine in canonical `(time, lane, seq)` order, so for
//!    *random* schedules — crash victim × crash instant × outage length
//!    × link-flap seed — the serialized report must be byte-identical
//!    across `--shards {1,2,4}` at every replica count `{2,4}` the
//!    schedule applies to (a single replica is one island, one loop).
//! 2. Failover fidelity: at R=2 with one replica crashed for the rest
//!    of the run, the survivor detects the silent digest, absorbs the
//!    dead replica's capacity share, and the run's allocation lands
//!    within the committed fault band of the classic R=1 engine.
//!
//! Uses the vendored proptest stub: deterministic generation, no
//! shrinking — a failure reports the case number for replay.

use speakup_exp::driver::report_json;
use speakup_exp::registry::FAULT_GOODPUT_BAND;
use speakup_exp::runner::{run_sharded, RunReport};
use speakup_exp::scenario::Mode;
use speakup_exp::scenarios;
use speakup_net::time::{SimDuration, SimTime};

/// The deterministic payload of one run, as the bytes `speakup run
/// --json` would emit for it.
fn payload(r: &RunReport) -> String {
    report_json(r).pretty()
}

mod shard_invariance {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Each case runs 2 replica counts x 3 shard widths of a
        // 3-second simulation; keep the count test-suite sized.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random fault schedules are invariant to how the population
        /// splits across shards, for every replica count.
        #[test]
        fn faulted_runs_are_shard_invariant(
            crash_at_ms in 200u64..2500,
            down_ms in 100u64..2000,
            victim in 0u32..4,
            flap_seed in any::<u64>(),
        ) {
            for thinners in [2u32, 4] {
                let sc = scenarios::fig2(0.5, Mode::Auction)
                    .duration(SimDuration::from_secs(3))
                    .thinners(thinners)
                    .sync_period(SimDuration::from_millis(10))
                    .link_flaps(
                        flap_seed,
                        SimDuration::from_millis(800),
                        SimDuration::from_millis(50),
                    )
                    .crash_replica(
                        victim % thinners,
                        SimTime::from_nanos(crash_at_ms * 1_000_000),
                        SimDuration::from_millis(down_ms),
                    );
                let base = payload(&run_sharded(&sc, 1));
                for shards in [2u32, 4] {
                    let sharded = payload(&run_sharded(&sc, shards));
                    prop_assert_eq!(
                        &base,
                        &sharded,
                        "R={} crash@{}ms+{}ms flap seed {:#x}: report changed \
                         between --shards 1 and --shards {}",
                        thinners,
                        crash_at_ms,
                        down_ms,
                        flap_seed,
                        shards
                    );
                }
            }
        }
    }
}

/// Control for the battery's sensitivity: injecting a crash must
/// actually change the serialized report — otherwise the invariance
/// property above would hold vacuously on a fault path that never runs.
#[test]
fn injected_faults_change_behavior() {
    let clean = scenarios::fig2(0.5, Mode::Auction)
        .duration(SimDuration::from_secs(3))
        .thinners(2)
        .sync_period(SimDuration::from_millis(10));
    let faulted = clean
        .clone()
        .crash_replica(1, SimTime::from_secs(1), SimDuration::from_secs(1));
    assert_ne!(
        payload(&run_sharded(&clean, 1)),
        payload(&run_sharded(&faulted, 1)),
        "a mid-run replica crash serialized identically to a clean run"
    );
}

/// One of two replicas crashes early and never comes back: the survivor
/// must notice (failover timestamp set), take over the full contender
/// load, and end the run within the committed band of the classic R=1
/// engine — a dead replica degrades service to R=1, it does not wedge
/// the auction.
#[test]
fn crashed_replica_at_r2_degrades_to_the_classic_engine() {
    let classic = run_sharded(
        &scenarios::fig2(0.5, Mode::Auction).duration(SimDuration::from_secs(10)),
        1,
    );
    let faulted = run_sharded(
        &scenarios::fig2(0.5, Mode::Auction)
            .duration(SimDuration::from_secs(10))
            .thinners(2)
            .sync_period(SimDuration::from_millis(10))
            // Down for 9 s from t=2: the restart lands past the end of
            // the run, so the survivor carries the load alone.
            .crash_replica(1, SimTime::from_secs(2), SimDuration::from_secs(9)),
        1,
    );
    let f = faulted
        .failover
        .as_ref()
        .expect("a crash spec must produce a failover report");
    assert!(
        f.time_to_failover_s().is_some(),
        "survivor never marked the dead replica stale"
    );
    assert!(
        f.rejoin_at_s.is_none(),
        "replica restarted outside the run but re-joined inside it"
    );
    let delta = (faulted.good_fraction() - classic.good_fraction()).abs();
    assert!(
        delta <= FAULT_GOODPUT_BAND,
        "post-failover allocation {:.3} drifted {delta:.3} from the classic \
         engine's {:.3} (band {FAULT_GOODPUT_BAND})",
        faulted.good_fraction(),
        classic.good_fraction()
    );
}
